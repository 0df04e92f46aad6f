package expr

import "sync"

// Schema maps human-readable attribute names to dense AttrIDs. It exists
// for the text syntax, the examples, and the broker; the matchers
// themselves operate purely on ids. Schema is safe for concurrent use.
type Schema struct {
	mu     sync.RWMutex
	names  []string
	byName map[string]AttrID
}

// NewSchema returns an empty schema.
func NewSchema() *Schema {
	return &Schema{byName: make(map[string]AttrID)}
}

// Attr returns the id for name, interning it on first use.
func (s *Schema) Attr(name string) AttrID {
	s.mu.RLock()
	id, ok := s.byName[name]
	s.mu.RUnlock()
	if ok {
		return id
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if id, ok := s.byName[name]; ok {
		return id
	}
	id = AttrID(len(s.names))
	s.names = append(s.names, name)
	s.byName[name] = id
	return id
}

// Name returns the name registered for id.
func (s *Schema) Name(id AttrID) (string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if int(id) >= len(s.names) {
		return "", false
	}
	return s.names[id], true
}
