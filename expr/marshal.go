package expr

import (
	"encoding/binary"
	"fmt"
)

// Binary codec. The format is a compact, append-style encoding used by
// the trace files, the broker wire protocol, and (as an identity key) the
// compressed cluster's predicate dictionary:
//
//	predicate  := uvarint(attr) byte(op) operands
//	operands   := zigzag(lo)                      (EQ NE LT LE GT GE)
//	            | zigzag(lo) zigzag(hi)           (Between)
//	            | uvarint(n) zigzag-delta values  (In NotIn)
//	expression := uvarint(id) uvarint(npreds) predicate*
//	event      := uvarint(npairs) { uvarint(attr delta) zigzag(val) }*
//
// Attribute deltas in events and value deltas in sets exploit sortedness
// for one-byte-per-entry encodings in the common case.

func zigzag(v Value) uint64   { return uint64((int64(v) << 1) ^ (int64(v) >> 63)) }
func unzigzag(u uint64) Value { return Value(int64(u>>1) ^ -int64(u&1)) }

// AppendPredicate appends the encoding of p to dst.
func AppendPredicate(dst []byte, p *Predicate) []byte {
	dst = binary.AppendUvarint(dst, uint64(p.Attr))
	dst = append(dst, byte(p.Op))
	switch p.Op {
	case Between:
		dst = binary.AppendUvarint(dst, zigzag(p.Lo))
		dst = binary.AppendUvarint(dst, zigzag(p.Hi))
	case In, NotIn:
		dst = binary.AppendUvarint(dst, uint64(len(p.Set)))
		prev := Value(0)
		for _, v := range p.Set {
			dst = binary.AppendUvarint(dst, zigzag(v-prev))
			prev = v
		}
	default:
		dst = binary.AppendUvarint(dst, zigzag(p.Lo))
	}
	return dst
}

// DecodePredicate decodes one predicate from b, returning it and the
// number of bytes consumed.
func DecodePredicate(b []byte) (Predicate, int, error) {
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
		p.Set = make([]Value, cnt)
		prev := Value(0)
		for i := range p.Set {
			d, n := binary.Uvarint(b[off:])
			if n <= 0 {
				return p, 0, fmt.Errorf("expr: truncated set element %d", i)
			}
			off += n
			prev += unzigzag(d)
			p.Set[i] = prev
		}
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

// AppendExpression appends the encoding of x to dst.
func AppendExpression(dst []byte, x *Expression) []byte {
	dst = binary.AppendUvarint(dst, uint64(x.ID))
	dst = binary.AppendUvarint(dst, uint64(len(x.Preds)))
	for i := range x.Preds {
		dst = AppendPredicate(dst, &x.Preds[i])
	}
	return dst
}

// DecodeExpression decodes one expression from b, returning it and the
// number of bytes consumed. The result is validated.
func DecodeExpression(b []byte) (*Expression, int, error) {
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
	preds := make([]Predicate, cnt)
	for i := range preds {
		p, n, err := DecodePredicate(b[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("expression %d predicate %d: %w", id, i, err)
		}
		preds[i] = p
		off += n
	}
	x, err := New(ID(id), preds...)
	if err != nil {
		return nil, 0, err
	}
	return x, off, nil
}

// AppendEvent appends the encoding of e to dst.
func AppendEvent(dst []byte, e *Event) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(e.pairs)))
	prev := AttrID(0)
	for _, p := range e.pairs {
		dst = binary.AppendUvarint(dst, uint64(p.Attr-prev))
		dst = binary.AppendUvarint(dst, zigzag(p.Val))
		prev = p.Attr
	}
	return dst
}

// DecodeEvent decodes one event from b, returning it and the number of
// bytes consumed.
func DecodeEvent(b []byte) (*Event, int, error) {
	cnt, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, 0, fmt.Errorf("expr: truncated event length")
	}
	off := n
	if cnt == 0 {
		return nil, 0, fmt.Errorf("expr: empty event")
	}
	if cnt > uint64(len(b)) {
		return nil, 0, fmt.Errorf("expr: event length %d exceeds input", cnt)
	}
	pairs := make([]Pair, cnt)
	prev := AttrID(0)
	for i := range pairs {
		d, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return nil, 0, fmt.Errorf("expr: truncated event attribute %d", i)
		}
		off += n
		v, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return nil, 0, fmt.Errorf("expr: truncated event value %d", i)
		}
		off += n
		if i > 0 && d == 0 {
			return nil, 0, fmt.Errorf("expr: duplicate attribute after %d in event", prev)
		}
		attr64 := uint64(prev) + d
		if attr64 > uint64(^AttrID(0)) {
			return nil, 0, fmt.Errorf("expr: attribute delta overflows at pair %d", i)
		}
		attr := AttrID(attr64)
		pairs[i] = Pair{Attr: attr, Val: unzigzag(v)}
		prev = attr
	}
	// Pairs were encoded sorted, so construct directly.
	return &Event{pairs: pairs}, off, nil
}
