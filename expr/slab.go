package expr

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// SlabDecoder decodes expressions destined for a long-lived index with
// slab allocation: expression structs, predicate arrays and set values
// are carved out of large shared blocks instead of being allocated per
// record. A bulk restore decodes millions of records whose storage is
// all retained by the index, so the per-record make calls of
// DecodeExpression — one *Expression, one []Predicate, one []Value per
// set predicate — dominate both allocation count and subsequent GC scan
// work; slab blocks collapse them to a handful of allocations per
// thousands of records.
//
// Blocks are append-only and never reallocated: once a block cannot fit
// the next expression a fresh one is started and the old block stays
// referenced by the expressions already built on it. Decoded
// expressions are therefore valid forever, exactly as if they had been
// built by New.
//
// A SlabDecoder is not safe for concurrent use. Expressions it has
// returned are never written again, so one decoding goroutine may hand
// them to others while it keeps decoding — the cold-start restore does.
type SlabDecoder struct {
	exprs []Expression
	preds []Predicate
	vals  []Value
}

// Slab block sizes, in elements. Oversized records get a private block.
const (
	slabExprBlock = 4096
	slabPredBlock = 1 << 14
	slabValBlock  = 1 << 13
)

// Decode decodes one expression from b, returning it and the number of
// bytes consumed. It is the slab twin of DecodeExpression: the result
// is validated and attribute-sorted identically, only the storage
// discipline differs.
func (d *SlabDecoder) Decode(b []byte) (*Expression, int, error) {
	id, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, 0, fmt.Errorf("expr: truncated expression id")
	}
	off := n
	cnt, n := binary.Uvarint(b[off:])
	if n <= 0 {
		return nil, 0, fmt.Errorf("expr: truncated predicate count")
	}
	off += n
	if cnt == 0 {
		return nil, 0, fmt.Errorf("expr: expression %d has no predicates", id)
	}
	if cnt > uint64(len(b)) {
		return nil, 0, fmt.Errorf("expr: predicate count %d exceeds input", cnt)
	}
	if len(d.preds)+int(cnt) > cap(d.preds) {
		blk := slabPredBlock
		if int(cnt) > blk {
			blk = int(cnt)
		}
		d.preds = make([]Predicate, 0, blk)
	}
	start := len(d.preds)
	sorted := true
	for i := 0; i < int(cnt); i++ {
		p, n, err := d.decodePredicate(b[off:])
		if err != nil {
			d.preds = d.preds[:start]
			return nil, 0, fmt.Errorf("expression %d predicate %d: %w", id, i, err)
		}
		if err := p.Validate(); err != nil {
			d.preds = d.preds[:start]
			return nil, 0, fmt.Errorf("expression %d: %w", id, err)
		}
		if i > 0 && p.Attr < d.preds[len(d.preds)-1].Attr {
			sorted = false
		}
		d.preds = append(d.preds, p)
		off += n
	}
	ps := d.preds[start:len(d.preds):len(d.preds)]
	if !sorted {
		// Traces written by this repository store predicates
		// attribute-sorted (New sorts); restore the invariant for
		// foreign encoders.
		sort.SliceStable(ps, func(i, j int) bool { return ps[i].Attr < ps[j].Attr })
	}
	if len(d.exprs) == cap(d.exprs) {
		d.exprs = make([]Expression, 0, slabExprBlock)
	}
	d.exprs = append(d.exprs, Expression{ID: ID(id), Preds: ps})
	return &d.exprs[len(d.exprs)-1], off, nil
}

// decodePredicate is DecodePredicate with In/NotIn sets carved from the
// value slab instead of allocated per predicate.
func (d *SlabDecoder) decodePredicate(b []byte) (Predicate, int, error) {
	var p Predicate
	attr, n := binary.Uvarint(b)
	if n <= 0 {
		return p, 0, fmt.Errorf("expr: truncated predicate attribute")
	}
	off := n
	if off >= len(b) {
		return p, 0, fmt.Errorf("expr: truncated predicate operator")
	}
	p.Attr = AttrID(attr)
	p.Op = Op(b[off])
	off++
	if !p.Op.Valid() {
		return p, 0, fmt.Errorf("expr: invalid operator byte %d", b[off-1])
	}
	switch p.Op {
	case Between:
		lo, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return p, 0, fmt.Errorf("expr: truncated interval low bound")
		}
		off += n
		hi, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return p, 0, fmt.Errorf("expr: truncated interval high bound")
		}
		off += n
		p.Lo, p.Hi = unzigzag(lo), unzigzag(hi)
	case In, NotIn:
		cnt, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return p, 0, fmt.Errorf("expr: truncated set length")
		}
		off += n
		if cnt > uint64(len(b)) {
			return p, 0, fmt.Errorf("expr: set length %d exceeds input", cnt)
		}
		if len(d.vals)+int(cnt) > cap(d.vals) {
			blk := slabValBlock
			if int(cnt) > blk {
				blk = int(cnt)
			}
			d.vals = make([]Value, 0, blk)
		}
		vstart := len(d.vals)
		prev := Value(0)
		for i := 0; i < int(cnt); i++ {
			u, n := binary.Uvarint(b[off:])
			if n <= 0 {
				d.vals = d.vals[:vstart]
				return p, 0, fmt.Errorf("expr: truncated set element %d", i)
			}
			off += n
			prev += unzigzag(u)
			d.vals = append(d.vals, prev)
		}
		p.Set = d.vals[vstart:len(d.vals):len(d.vals)]
	default:
		lo, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return p, 0, fmt.Errorf("expr: truncated operand")
		}
		off += n
		p.Lo = unzigzag(lo)
		if p.Op == EQ || p.Op == NE {
			p.Hi = p.Lo
		}
	}
	return p, off, nil
}
