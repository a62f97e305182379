package relation

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"skalla/internal/obs"
)

// This file implements the Skalla wire format: a hand-rolled, length-prefixed,
// column-major binary codec for relations. It replaces per-payload gob on
// every data-plane path (site↔coordinator transport, disk segments): gob is
// reflection-based and self-describing, re-sending type information with
// every fresh encoder, while the bytes shipped per group are the primary cost
// of distributed query processing (Theorem 2).
//
// Stream layout: a stream is a sequence of frames, each a uvarint body length
// followed by the body. A body starts with a frame kind byte:
//
//	frameInline — the relation's schema follows inline, then the rows
//	frameCached — the rows reuse the stream's previously sent schema
//
// An Encoder sends the schema once and switches to frameCached while the
// schema is unchanged, so a stream of H_i blocks pays for its schema exactly
// once. Rows are encoded column-major: per column a NULL bitmap (bit set =
// NULL), then an encoding byte (uniform/mixed), then the non-NULL values —
// zigzag varints for INT, raw little-endian bits for FLOAT, length-prefixed
// bytes for STRING, and packed bits for BOOL. The mixed fallback tags each
// value with its kind, preserving exact round-trips for columns whose dynamic
// value kinds disagree with the declared column kind.

const (
	frameInline = 0x01
	frameCached = 0x02

	// maxFrameBody bounds a single frame (1 GiB) so a corrupt length prefix
	// cannot drive an unbounded allocation.
	maxFrameBody = 1 << 30
)

const (
	encUniform = 0x00
	encMixed   = 0x01
)

// ByteScanner is the reader a Decoder consumes: bytes.Buffer, bytes.Reader
// and bufio.Reader all satisfy it, which lets a Decoder share a buffered
// connection reader with other protocol layers without read-ahead conflicts.
type ByteScanner interface {
	io.Reader
	io.ByteReader
}

// Encoder writes relations in the Skalla wire format. The schema is emitted
// inline on the first frame and whenever it changes; in between, frames carry
// only row data. The zero-allocation steady state reuses one scratch buffer.
type Encoder struct {
	w         io.Writer
	schema    Schema
	hasSchema bool
	body      []byte
	bytes     int64
	lenBuf    [binary.MaxVarintLen64]byte
}

// NewEncoder creates an encoder writing to w.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{w: w} }

// Bytes returns the total bytes this encoder has written (frame headers
// included) — the per-stream counterpart of the process-wide
// CodecEncodeBytes counter, used for per-query codec accounting.
func (e *Encoder) Bytes() int64 { return e.bytes }

// Encode writes one relation frame.
func (e *Encoder) Encode(r *Relation) error {
	for i, t := range r.Tuples {
		if len(t) != len(r.Schema) {
			return fmt.Errorf("relation: row %d arity %d does not match schema %s", i, len(t), r.Schema)
		}
	}
	body := e.body[:0]
	if e.hasSchema && e.schema.Equal(r.Schema) {
		body = append(body, frameCached)
	} else {
		body = append(body, frameInline)
		body = appendSchema(body, r.Schema)
		e.schema = r.Schema.Clone() // callers may mutate their schema later
		e.hasSchema = true
	}
	body = appendColumns(body, r)
	e.body = body[:0] // retain capacity
	n := binary.PutUvarint(e.lenBuf[:], uint64(len(body)))
	if _, err := e.w.Write(e.lenBuf[:n]); err != nil {
		return err
	}
	if _, err := e.w.Write(body); err != nil {
		return err
	}
	e.bytes += int64(n + len(body))
	obs.CodecEncodeBytes.Add(int64(n + len(body)))
	obs.CodecFrames.With("encode").Inc()
	return nil
}

func appendSchema(body []byte, s Schema) []byte {
	body = binary.AppendUvarint(body, uint64(len(s)))
	for _, c := range s {
		body = binary.AppendUvarint(body, uint64(len(c.Name)))
		body = append(body, c.Name...)
		body = append(body, byte(c.Kind))
	}
	return body
}

var zeroBytes [256]byte

func appendZeros(body []byte, n int) []byte {
	for n > len(zeroBytes) {
		body = append(body, zeroBytes[:]...)
		n -= len(zeroBytes)
	}
	return append(body, zeroBytes[:n]...)
}

func appendColumns(body []byte, r *Relation) []byte {
	n := len(r.Tuples)
	body = binary.AppendUvarint(body, uint64(n))
	nb := (n + 7) / 8
	for j, col := range r.Schema {
		bitmap := len(body)
		body = appendZeros(body, nb)
		nonNull := 0
		uniform := true
		for i, t := range r.Tuples {
			v := t[j]
			if v.IsNull() {
				body[bitmap+i/8] |= 1 << (i % 8)
			} else {
				nonNull++
				if v.Kind != col.Kind {
					uniform = false
				}
			}
		}
		if uniform {
			body = append(body, encUniform)
			body = appendUniformColumn(body, r, j, col.Kind, nonNull)
		} else {
			body = append(body, encMixed)
			body = appendMixedColumn(body, r, j)
		}
	}
	return body
}

func appendUniformColumn(body []byte, r *Relation, j int, kind Kind, nonNull int) []byte {
	switch kind {
	case KindNull:
		// All values are NULL (a non-NULL value always has a non-NULL kind).
	case KindInt:
		for _, t := range r.Tuples {
			if v := t[j]; !v.IsNull() {
				body = binary.AppendVarint(body, v.Int)
			}
		}
	case KindFloat:
		for _, t := range r.Tuples {
			if v := t[j]; !v.IsNull() {
				body = binary.LittleEndian.AppendUint64(body, math.Float64bits(v.Float))
			}
		}
	case KindString:
		for _, t := range r.Tuples {
			if v := t[j]; !v.IsNull() {
				body = binary.AppendUvarint(body, uint64(len(v.Str)))
				body = append(body, v.Str...)
			}
		}
	case KindBool:
		packed := len(body)
		body = appendZeros(body, (nonNull+7)/8)
		k := 0
		for _, t := range r.Tuples {
			if v := t[j]; !v.IsNull() {
				if v.Int != 0 {
					body[packed+k/8] |= 1 << (k % 8)
				}
				k++
			}
		}
	}
	return body
}

func appendMixedColumn(body []byte, r *Relation, j int) []byte {
	for _, t := range r.Tuples {
		v := t[j]
		if v.IsNull() {
			continue
		}
		body = append(body, byte(v.Kind))
		switch v.Kind {
		case KindInt, KindBool:
			body = binary.AppendVarint(body, v.Int)
		case KindFloat:
			body = binary.LittleEndian.AppendUint64(body, math.Float64bits(v.Float))
		case KindString:
			body = binary.AppendUvarint(body, uint64(len(v.Str)))
			body = append(body, v.Str...)
		}
	}
	return body
}

// Decoder reads relations written by an Encoder, caching the stream schema
// across frames. With SetPool, decoded blocks borrow tuple storage from a
// BlockPool so steady-state streaming rounds allocate O(1); the consumer
// returns a fully merged block with Recycle.
type Decoder struct {
	r         ByteScanner
	schema    Schema
	hasSchema bool
	body      []byte
	pool      *BlockPool
	bytes     int64
}

// NewDecoder creates a decoder reading from r.
func NewDecoder(r ByteScanner) *Decoder { return &Decoder{r: r} }

// SetPool makes the decoder allocate decoded blocks from pool.
func (d *Decoder) SetPool(pool *BlockPool) { d.pool = pool }

// Bytes returns the total bytes of the frames this decoder has decoded
// (frame headers included): the receiving end's count of Encoder.Bytes.
func (d *Decoder) Bytes() int64 { return d.bytes }

// Decode reads one relation frame. It returns io.EOF (possibly wrapped as
// io.ErrUnexpectedEOF mid-frame) when the stream ends.
func (d *Decoder) Decode() (*Relation, error) {
	ln, err := binary.ReadUvarint(d.r)
	if err != nil {
		return nil, err
	}
	if ln > maxFrameBody {
		return nil, fmt.Errorf("relation: codec frame of %d bytes exceeds limit", ln)
	}
	if uint64(cap(d.body)) < ln {
		d.body = make([]byte, ln)
	}
	body := d.body[:ln]
	if _, err := io.ReadFull(d.r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	cur := &cursor{b: body}
	kind, err := cur.byte()
	if err != nil {
		return nil, err
	}
	switch kind {
	case frameInline:
		schema, err := readSchema(cur)
		if err != nil {
			return nil, err
		}
		if err := schema.Validate(); err != nil {
			return nil, err
		}
		d.schema, d.hasSchema = schema, true
	case frameCached:
		if !d.hasSchema {
			return nil, fmt.Errorf("relation: codec frame references schema before one was sent")
		}
	default:
		return nil, fmt.Errorf("relation: unknown codec frame kind 0x%02x", kind)
	}
	rel, err := d.readColumns(cur)
	if err != nil {
		return nil, err
	}
	if cur.pos != len(cur.b) {
		return nil, fmt.Errorf("relation: codec frame has %d trailing bytes", len(cur.b)-cur.pos)
	}
	n := int64(uvarintLen(ln)) + int64(ln)
	d.bytes += n
	obs.CodecDecodeBytes.Add(n)
	obs.CodecFrames.With("decode").Inc()
	return rel, nil
}

// uvarintLen is the encoded size of the frame's length prefix.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// cursor is a bounds-checked reader over a frame body.
type cursor struct {
	b   []byte
	pos int
}

var errShortFrame = fmt.Errorf("relation: truncated codec frame")

func (c *cursor) byte() (byte, error) {
	if c.pos >= len(c.b) {
		return 0, errShortFrame
	}
	v := c.b[c.pos]
	c.pos++
	return v, nil
}

func (c *cursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b[c.pos:])
	if n <= 0 {
		return 0, errShortFrame
	}
	c.pos += n
	return v, nil
}

func (c *cursor) varint() (int64, error) {
	v, n := binary.Varint(c.b[c.pos:])
	if n <= 0 {
		return 0, errShortFrame
	}
	c.pos += n
	return v, nil
}

func (c *cursor) bytes(n int) ([]byte, error) {
	if n < 0 || c.pos+n > len(c.b) {
		return nil, errShortFrame
	}
	v := c.b[c.pos : c.pos+n]
	c.pos += n
	return v, nil
}

func (c *cursor) count(limit int, what string) (int, error) {
	v, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(limit) {
		return 0, fmt.Errorf("relation: codec %s count %d exceeds limit %d", what, v, limit)
	}
	return int(v), nil
}

func readSchema(cur *cursor) (Schema, error) {
	ncols, err := cur.count(1<<20, "column")
	if err != nil {
		return nil, err
	}
	schema := make(Schema, ncols)
	for i := range schema {
		nameLen, err := cur.count(1<<20, "name length")
		if err != nil {
			return nil, err
		}
		name, err := cur.bytes(nameLen)
		if err != nil {
			return nil, err
		}
		kind, err := cur.byte()
		if err != nil {
			return nil, err
		}
		if Kind(kind) > KindBool {
			return nil, fmt.Errorf("relation: codec schema column %d has unknown kind %d", i, kind)
		}
		schema[i] = Column{Name: string(name), Kind: Kind(kind)}
	}
	return schema, nil
}

func (d *Decoder) readColumns(cur *cursor) (*Relation, error) {
	nrows, err := cur.count(maxFrameBody, "row")
	if err != nil {
		return nil, err
	}
	schema := d.schema
	cols := len(schema)
	var rel *Relation
	if d.pool != nil {
		rel = d.pool.Get(schema, nrows)
	} else {
		flat := make([]Value, nrows*cols)
		tuples := make([]Tuple, nrows)
		for i := range tuples {
			tuples[i] = flat[i*cols : (i+1)*cols : (i+1)*cols]
		}
		rel = &Relation{Schema: schema, Tuples: tuples}
	}
	nb := (nrows + 7) / 8
	for j := 0; j < cols; j++ {
		bitmap, err := cur.bytes(nb)
		if err != nil {
			return nil, err
		}
		enc, err := cur.byte()
		if err != nil {
			return nil, err
		}
		switch enc {
		case encUniform:
			if err := readUniformColumn(cur, rel, j, schema[j].Kind, bitmap); err != nil {
				return nil, err
			}
		case encMixed:
			if err := readMixedColumn(cur, rel, j, bitmap); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("relation: unknown codec column encoding 0x%02x", enc)
		}
	}
	return rel, nil
}

func isNullAt(bitmap []byte, i int) bool { return bitmap[i/8]&(1<<(i%8)) != 0 }

func readUniformColumn(cur *cursor, rel *Relation, j int, kind Kind, bitmap []byte) error {
	switch kind {
	case KindNull:
		for _, t := range rel.Tuples {
			t[j] = Null
		}
	case KindInt:
		for i, t := range rel.Tuples {
			if isNullAt(bitmap, i) {
				t[j] = Null
				continue
			}
			v, err := cur.varint()
			if err != nil {
				return err
			}
			t[j] = Value{Kind: KindInt, Int: v}
		}
	case KindFloat:
		for i, t := range rel.Tuples {
			if isNullAt(bitmap, i) {
				t[j] = Null
				continue
			}
			raw, err := cur.bytes(8)
			if err != nil {
				return err
			}
			t[j] = Value{Kind: KindFloat, Float: math.Float64frombits(binary.LittleEndian.Uint64(raw))}
		}
	case KindString:
		for i, t := range rel.Tuples {
			if isNullAt(bitmap, i) {
				t[j] = Null
				continue
			}
			n, err := cur.count(maxFrameBody, "string length")
			if err != nil {
				return err
			}
			raw, err := cur.bytes(n)
			if err != nil {
				return err
			}
			t[j] = Value{Kind: KindString, Str: string(raw)}
		}
	case KindBool:
		nonNull := 0
		for i := 0; i < len(rel.Tuples); i++ {
			if !isNullAt(bitmap, i) {
				nonNull++
			}
		}
		packed, err := cur.bytes((nonNull + 7) / 8)
		if err != nil {
			return err
		}
		k := 0
		for i, t := range rel.Tuples {
			if isNullAt(bitmap, i) {
				t[j] = Null
				continue
			}
			v := Value{Kind: KindBool}
			if packed[k/8]&(1<<(k%8)) != 0 {
				v.Int = 1
			}
			t[j] = v
			k++
		}
	}
	return nil
}

func readMixedColumn(cur *cursor, rel *Relation, j int, bitmap []byte) error {
	for i, t := range rel.Tuples {
		if isNullAt(bitmap, i) {
			t[j] = Null
			continue
		}
		kind, err := cur.byte()
		if err != nil {
			return err
		}
		switch Kind(kind) {
		case KindInt, KindBool:
			v, err := cur.varint()
			if err != nil {
				return err
			}
			t[j] = Value{Kind: Kind(kind), Int: v}
		case KindFloat:
			raw, err := cur.bytes(8)
			if err != nil {
				return err
			}
			t[j] = Value{Kind: KindFloat, Float: math.Float64frombits(binary.LittleEndian.Uint64(raw))}
		case KindString:
			n, err := cur.count(maxFrameBody, "string length")
			if err != nil {
				return err
			}
			raw, err := cur.bytes(n)
			if err != nil {
				return err
			}
			t[j] = Value{Kind: KindString, Str: string(raw)}
		default:
			return fmt.Errorf("relation: codec mixed value with invalid kind %d", kind)
		}
	}
	return nil
}

// Marshal encodes a relation as one self-contained frame (schema inline).
func Marshal(r *Relation) ([]byte, error) {
	var buf bytes.Buffer
	if err := NewEncoder(&buf).Encode(r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Unmarshal decodes a relation from a single self-contained frame.
func Unmarshal(b []byte) (*Relation, error) {
	rd := bytes.NewReader(b)
	rel, err := NewDecoder(rd).Decode()
	if err != nil {
		return nil, err
	}
	if rd.Len() != 0 {
		return nil, fmt.Errorf("relation: %d trailing bytes after codec frame", rd.Len())
	}
	return rel, nil
}

// GobEncode makes gob envelopes (transport request/response structs, legacy
// files) carry relations in the compact wire format rather than gob's
// reflective struct encoding: exactly one Marshal frame per relation.
func (r *Relation) GobEncode() ([]byte, error) {
	b, err := Marshal(r)
	if r.metered {
		r.frame = len(b)
	}
	return b, err
}

// GobDecode is the inverse of GobEncode.
func (r *Relation) GobDecode(b []byte) error {
	rel, err := Unmarshal(b)
	if err != nil {
		return err
	}
	r.Schema, r.Tuples, r.pooled, r.frame = rel.Schema, rel.Tuples, nil, len(b)
	return nil
}

// Metered returns a shallow copy of r (sharing its schema and tuples) whose
// GobEncode records the frame size for FrameBytes, so a sender learns the
// data-plane bytes of an envelope without encoding the relation twice. The
// copy is the caller's own, so concurrent senders of one relation never
// share the record. Metered(nil) is nil.
func Metered(r *Relation) *Relation {
	if r == nil {
		return nil
	}
	return &Relation{Schema: r.Schema, Tuples: r.Tuples, metered: true}
}

// FrameBytes returns the size of the codec frame that carried r inside a gob
// envelope: set by GobDecode on the receiving end and by GobEncode on a
// Metered copy; zero otherwise (and for nil).
func (r *Relation) FrameBytes() int {
	if r == nil {
		return 0
	}
	return r.frame
}

// BlockPool recycles decoded-block storage (the row-pointer slice and the
// flat value array backing the tuples) across streaming merges. Get hands out
// a relation whose tuples are carved from pooled storage; Recycle returns the
// storage once the consumer has merged the block. Safe for concurrent use.
type BlockPool struct {
	p sync.Pool
}

type blockStorage struct {
	pool   *BlockPool
	tuples []Tuple
	flat   []Value
}

// Get returns a pooled relation with rows tuples of arity len(schema). Every
// cell must be written by the caller (the decoder does) — recycled storage
// holds stale values.
func (bp *BlockPool) Get(schema Schema, rows int) *Relation {
	bs, _ := bp.p.Get().(*blockStorage)
	if bs == nil {
		bs = &blockStorage{pool: bp}
	}
	cols := len(schema)
	need := rows * cols
	if cap(bs.flat) < need {
		bs.flat = make([]Value, need)
	}
	if cap(bs.tuples) < rows {
		bs.tuples = make([]Tuple, rows)
	}
	bs.flat = bs.flat[:need]
	bs.tuples = bs.tuples[:rows]
	for i := range bs.tuples {
		bs.tuples[i] = bs.flat[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return &Relation{Schema: schema, Tuples: bs.tuples, pooled: bs}
}

// Recycle returns a pooled relation's storage for reuse; it is a no-op for
// relations not obtained from a BlockPool. The caller must not use r (or
// retain references into its tuples' backing storage) afterwards; values
// copied out of it — including strings, which are immutable — stay valid.
func Recycle(r *Relation) {
	if r == nil || r.pooled == nil {
		return
	}
	bs := r.pooled
	r.pooled = nil
	r.Tuples = nil
	bs.pool.p.Put(bs)
}
