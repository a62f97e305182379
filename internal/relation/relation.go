package relation

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Tuple is one row of a relation. Its length always matches the relation's
// schema.
type Tuple []Value

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Key returns the canonical grouping key of the tuple restricted to the
// given column positions. The hashed key layer (KeyHash/KeyIndex/KeySet) is
// the allocation-free replacement on hot paths; Key remains for debugging and
// as the reference encoding the hashed layer must agree with.
func (t Tuple) Key(idx []int) string {
	buf := make([]byte, 0, 16*len(idx))
	for _, i := range idx {
		buf = t[i].appendKey(buf)
	}
	return string(buf)
}

// KeyHash returns the 64-bit FNV-1a hash of the tuple's canonical grouping
// key over the given column positions, without materializing the key bytes.
// Two tuples with equal Key strings always have equal KeyHash values.
func (t Tuple) KeyHash(idx []int) uint64 {
	h := uint64(fnvOffset64)
	for _, i := range idx {
		h = t[i].hashKeyInto(h)
	}
	return h
}

// keyColsEqual reports whether a restricted to aIdx and b restricted to bIdx
// encode the same grouping key (identity semantics, matching Tuple.Key
// equality).
func keyColsEqual(a Tuple, aIdx []int, b Tuple, bIdx []int) bool {
	if len(aIdx) != len(bIdx) {
		return false
	}
	for i := range aIdx {
		if !a[aIdx[i]].keyEqual(b[bIdx[i]]) {
			return false
		}
	}
	return true
}

// Relation is an in-memory row-oriented relation (multiset of tuples).
type Relation struct {
	Schema Schema
	Tuples []Tuple

	// pooled links a decoded wire block back to its BlockPool storage so
	// Recycle can return it; nil for ordinary relations.
	pooled *blockStorage

	// frame is the codec frame size of the gob envelope that carried this
	// relation (see FrameBytes); metered marks a copy whose GobEncode
	// records it.
	frame   int
	metered bool
}

// New returns an empty relation with the given schema.
func New(schema Schema) *Relation {
	return &Relation{Schema: schema}
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.Tuples) }

// Approximate in-memory cost of one Value (Kind + Int + Float + string
// header, padded) and of one Tuple's slice header. Used by MemBytes and by
// the coordinator's memory budgeting; the numbers track the 64-bit layout of
// the structs, not exact allocator accounting.
const (
	// ValueMemBytes estimates one Value's in-memory size.
	ValueMemBytes = 48
	// TupleMemBytes estimates one Tuple's slice-header overhead.
	TupleMemBytes = 24
)

// MemBytes estimates the relation's in-memory footprint in bytes: slice
// headers plus per-value storage plus string payloads. It is an O(rows)
// estimate for memory budgeting (admission control charges it at staging and
// merge boundaries), not an exact allocator measurement.
func (r *Relation) MemBytes() int64 {
	if r == nil {
		return 0
	}
	n := int64(TupleMemBytes) * int64(len(r.Schema))
	for _, t := range r.Tuples {
		n += t.MemBytes()
	}
	return n
}

// MemBytes estimates one tuple's in-memory footprint (slice header, values,
// string payloads), matching Relation.MemBytes per-row accounting.
func (t Tuple) MemBytes() int64 {
	n := int64(TupleMemBytes) + ValueMemBytes*int64(len(t))
	for i := range t {
		if t[i].Kind == KindString {
			n += int64(len(t[i].Str))
		}
	}
	return n
}

// Append adds a tuple after checking arity.
func (r *Relation) Append(t Tuple) error {
	if len(t) != len(r.Schema) {
		return fmt.Errorf("relation: tuple arity %d does not match schema %s", len(t), r.Schema)
	}
	r.Tuples = append(r.Tuples, t)
	return nil
}

// MustAppend is Append but panics on arity mismatch.
func (r *Relation) MustAppend(t Tuple) {
	if err := r.Append(t); err != nil {
		panic(err)
	}
}

// Clone deep-copies the relation.
func (r *Relation) Clone() *Relation {
	out := &Relation{Schema: r.Schema.Clone(), Tuples: make([]Tuple, len(r.Tuples))}
	for i, t := range r.Tuples {
		out.Tuples[i] = t.Clone()
	}
	return out
}

// Project returns a new relation restricted to the named columns, preserving
// duplicates and order.
func (r *Relation) Project(names []string) (*Relation, error) {
	idx, err := r.Schema.Indexes(names)
	if err != nil {
		return nil, err
	}
	out := New(r.Schema.Project(idx))
	out.Tuples = make([]Tuple, len(r.Tuples))
	for i, t := range r.Tuples {
		nt := make(Tuple, len(idx))
		for j, k := range idx {
			nt[j] = t[k]
		}
		out.Tuples[i] = nt
	}
	return out, nil
}

// DistinctProject returns the set of distinct rows over the named columns,
// in first-seen order.
func (r *Relation) DistinctProject(names []string) (*Relation, error) {
	idx, err := r.Schema.Indexes(names)
	if err != nil {
		return nil, err
	}
	out := New(r.Schema.Project(idx))
	seen := NewKeySet(len(r.Tuples))
	for _, t := range r.Tuples {
		if key, fresh := seen.Add(t, idx); fresh {
			out.Tuples = append(out.Tuples, key)
		}
	}
	return out, nil
}

// Filter returns the rows for which keep returns true.
func (r *Relation) Filter(keep func(Tuple) bool) *Relation {
	out := New(r.Schema)
	for _, t := range r.Tuples {
		if keep(t) {
			out.Tuples = append(out.Tuples, t)
		}
	}
	return out
}

// Union appends all tuples of o (multiset union). Schemas must match.
func (r *Relation) Union(o *Relation) error {
	if !r.Schema.Equal(o.Schema) {
		return fmt.Errorf("relation: union schema mismatch: %s vs %s", r.Schema, o.Schema)
	}
	r.Tuples = append(r.Tuples, o.Tuples...)
	return nil
}

// DedupBy removes duplicate rows with equal keys over the given columns,
// keeping the first occurrence.
func (r *Relation) DedupBy(names []string) error {
	idx, err := r.Schema.Indexes(names)
	if err != nil {
		return err
	}
	seen := NewKeySet(len(r.Tuples))
	out := r.Tuples[:0]
	for _, t := range r.Tuples {
		if _, fresh := seen.Add(t, idx); fresh {
			out = append(out, t)
		}
	}
	r.Tuples = out
	return nil
}

// Sort orders the tuples lexicographically over all columns using the total
// sort order on values. It is used for deterministic output and result
// comparison.
func (r *Relation) Sort() {
	sort.SliceStable(r.Tuples, func(i, j int) bool {
		a, b := r.Tuples[i], r.Tuples[j]
		for k := range a {
			if a[k].Equal(b[k]) {
				continue
			}
			return a[k].sortLess(b[k])
		}
		return false
	})
}

// EqualMultiset reports whether two relations hold the same multiset of
// tuples under the same schema, ignoring row order.
func (r *Relation) EqualMultiset(o *Relation) bool {
	if !r.Schema.Equal(o.Schema) || len(r.Tuples) != len(o.Tuples) {
		return false
	}
	all := identityCols(len(r.Schema))
	counts := NewKeyCounter(len(r.Tuples))
	for _, t := range r.Tuples {
		counts.Inc(t, all)
	}
	for _, t := range o.Tuples {
		if counts.Dec(t, all) < 0 {
			return false
		}
	}
	return true
}

// String renders the relation as an aligned text table (header + rows).
// Intended for examples and debugging; large relations are truncated.
func (r *Relation) String() string { return r.Format(50) }

// Format renders up to maxRows rows as an aligned text table.
func (r *Relation) Format(maxRows int) string {
	widths := make([]int, len(r.Schema))
	for i, c := range r.Schema {
		widths[i] = len(c.Name)
	}
	n := len(r.Tuples)
	shown := n
	if maxRows >= 0 && shown > maxRows {
		shown = maxRows
	}
	cells := make([][]string, shown)
	for i := 0; i < shown; i++ {
		row := make([]string, len(r.Schema))
		for j, v := range r.Tuples[i] {
			row[j] = v.String()
			if len(row[j]) > widths[j] {
				widths[j] = len(row[j])
			}
		}
		cells[i] = row
	}
	last := len(r.Schema) - 1
	var b strings.Builder
	for j, c := range r.Schema {
		if j > 0 {
			b.WriteString("  ")
		}
		if j == last {
			b.WriteString(c.Name) // no trailing padding
		} else {
			fmt.Fprintf(&b, "%-*s", widths[j], c.Name)
		}
	}
	b.WriteByte('\n')
	for _, row := range cells {
		for j, s := range row {
			if j > 0 {
				b.WriteString("  ")
			}
			if j == last {
				b.WriteString(s)
			} else {
				fmt.Fprintf(&b, "%-*s", widths[j], s)
			}
		}
		b.WriteByte('\n')
	}
	if shown < n {
		fmt.Fprintf(&b, "... (%d more rows)\n", n-shown)
	}
	return b.String()
}

// EqualMultisetApprox compares two relations like EqualMultiset but allows a
// relative tolerance on FLOAT values. Distributed aggregation sums partial
// results in arrival order, so float aggregates can differ in the last bits
// between plans or runs — like any parallel floating-point sum; exact
// comparison is only appropriate for integer aggregates.
func (r *Relation) EqualMultisetApprox(o *Relation, relTol float64) bool {
	if !r.Schema.Equal(o.Schema) || len(r.Tuples) != len(o.Tuples) {
		return false
	}
	a, b := r.Clone(), o.Clone()
	a.Sort()
	b.Sort()
	for i := range a.Tuples {
		for j := range a.Tuples[i] {
			if !valueApproxEqual(a.Tuples[i][j], b.Tuples[i][j], relTol) {
				return false
			}
		}
	}
	return true
}

func valueApproxEqual(x, y Value, relTol float64) bool {
	if x.Equal(y) {
		return true
	}
	// Only FLOAT values earn tolerance: integer aggregates (COUNT, integer
	// SUM/MIN/MAX) are exact and must match exactly.
	if x.Kind != KindFloat || y.Kind != KindFloat {
		return false
	}
	xf, xok := x.AsFloat()
	yf, yok := y.AsFloat()
	if !xok || !yok {
		return false
	}
	diff := math.Abs(xf - yf)
	scale := math.Max(math.Abs(xf), math.Abs(yf))
	if scale < 1 {
		scale = 1
	}
	return diff/scale <= relTol
}
