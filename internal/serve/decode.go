package serve

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// The wire decoder: one hand-written scanner over a byte slice that fills
// IngestRequest (an HTTP body) and WireBatch (a journal record) directly,
// without reflection. It accepts exactly the documents encoding/json
// accepts for these types with unknown fields disallowed, with the same
// values bit for bit, except that it also rejects
//
//   - bytes after the top-level value other than whitespace (the ingest
//     decoder's Decoder.More check let a trailing ']' or '}' through),
//   - a key that repeats within one object (keys that fold to the same field
//     are the same key; encoding/json merged them), and
//   - a null array element (encoding/json stored a zero value).
//
// Keys match a field name exactly or, after unescaping, under Unicode
// case folding (bytes.EqualFold), as in encoding/json. A null field value
// means the field is absent. Numbers
// are validated against the JSON grammar; integer fields reject fractions,
// exponents and values outside int, and float fields take
// strconv.ParseFloat of the literal. The differential fuzz targets in
// decode_test.go hold the decoder to encoding/json.

// Field names per object, in struct order; decode_test.go checks them
// against the json tags.
var (
	ingestFields  = []string{"reducers", "intents", "done_jobs"}
	intentFields  = []string{"job", "map", "attempt", "src_host", "predicted_wire_bytes"}
	reducerFields = []string{"job", "reduce", "host"}
	batchFields   = []string{"virtual_sec", "ops"}
	opFields      = []string{"kind", "intent", "reducer", "job"}
)

// decoder is one decode call's state. Lists are parsed into the scratch
// slices and copied out at their exact length, so a decoded value shares
// no backing with another or with the pool. Decoders are pooled.
type decoder struct {
	buf []byte
	pos int
	err error

	body    bytes.Buffer // an ingest body, read whole
	key     []byte       // an unescaped string
	floats  []float64
	ints    []int
	ups     []WireReducerUp
	intents []WireIntent
	ops     []scanOp
}

// scanOp is a journaled op before its payloads have a final home: intent
// and reducer index the decoder's scratch lists (-1 when absent).
type scanOp struct {
	kind            string
	intent, reducer int
	job             int
}

// maxPooledInput keeps the buffers a rare huge input grew out of the pool.
const maxPooledInput = 1 << 20

var decoders = sync.Pool{New: func() any { return new(decoder) }}

func getDecoder(buf []byte) *decoder {
	d := decoders.Get().(*decoder)
	d.buf, d.pos, d.err = buf, 0, nil
	return d
}

func (d *decoder) release() {
	small := len(d.buf) <= maxPooledInput
	d.buf = nil
	if small {
		decoders.Put(d)
	}
}

// readIngest reads a whole body and decodes it.
func readIngest(r io.Reader) (*IngestRequest, error) {
	d := getDecoder(nil)
	defer d.release()
	d.body.Reset()
	_, err := d.body.ReadFrom(r)
	d.buf = d.body.Bytes()
	if err != nil {
		return nil, err
	}
	req := new(IngestRequest)
	d.ingest(req)
	d.end()
	if d.err != nil {
		return nil, d.err
	}
	return req, nil
}

// decodeBatch decodes one journal record.
func decodeBatch(p []byte) (*WireBatch, error) {
	d := getDecoder(p)
	defer d.release()
	b := new(WireBatch)
	d.batch(b)
	d.end()
	if d.err != nil {
		return nil, d.err
	}
	return b, nil
}

// end rejects anything but whitespace after the top-level value.
func (d *decoder) end() {
	if d.err != nil {
		return
	}
	if d.ws(); d.pos < len(d.buf) {
		d.fail("trailing data after JSON object")
	}
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%s at offset %d", fmt.Sprintf(format, args...), d.pos)
	}
}

// ws skips whitespace and returns the next byte, or 0 at the end.
func (d *decoder) ws() byte {
	for d.pos < len(d.buf) {
		switch c := d.buf[d.pos]; c {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return c
		}
	}
	return 0
}

// null consumes a null literal if one is next, reporting whether it did.
func (d *decoder) null() bool {
	if d.err != nil || d.ws() != 'n' {
		return false
	}
	if !bytes.HasPrefix(d.buf[d.pos:], []byte("null")) {
		d.fail("invalid literal")
		return false
	}
	d.pos += 4
	return true
}

// open consumes the delimiter c ('{' or '[').
func (d *decoder) open(c byte) bool {
	if d.err != nil {
		return false
	}
	if d.ws() != c {
		d.fail("expected %q", c)
		return false
	}
	d.pos++
	return true
}

// member advances past the next key of an object whose '{' was consumed
// and its ':', and returns the key's index in names; -1 at the closing '}'
// or on error. seen holds the indexes already taken in this object.
func (d *decoder) member(names []string, seen *uint32, first bool) int {
	if d.err != nil {
		return -1
	}
	c := d.ws()
	if c == '}' {
		d.pos++
		return -1
	}
	if !first {
		if c != ',' {
			d.fail("expected ',' or '}'")
			return -1
		}
		d.pos++
		c = d.ws()
	}
	if c != '"' {
		d.fail("expected object key")
		return -1
	}
	key := d.str()
	f := -1
	for i, n := range names {
		if string(key) == n {
			f = i
			break
		}
	}
	if f < 0 {
		for i, n := range names {
			if strings.EqualFold(string(key), n) {
				f = i
				break
			}
		}
	}
	switch {
	case d.err != nil:
		return -1
	case f < 0:
		d.fail("unknown field %q", key)
		return -1
	case *seen&(1<<f) != 0:
		d.fail("duplicate key %q", key)
		return -1
	}
	*seen |= 1 << f
	if d.ws() != ':' {
		d.fail("expected ':'")
		return -1
	}
	d.pos++
	return f
}

// elem advances to the next element of an array whose '[' was consumed,
// reporting false at the closing ']' or on error. Null elements are
// rejected.
func (d *decoder) elem(first bool) bool {
	if d.err != nil {
		return false
	}
	c := d.ws()
	if c == ']' {
		d.pos++
		return false
	}
	if !first {
		if c != ',' {
			d.fail("expected ',' or ']'")
			return false
		}
		d.pos++
		c = d.ws()
	}
	if c == 'n' {
		d.fail("null array element")
		return false
	}
	return true
}

// str consumes a string and returns its unescaped bytes, which alias the
// input or d.key and are valid until the next call. Invalid UTF-8 and
// unpaired surrogate escapes become U+FFFD, as in encoding/json.
func (d *decoder) str() []byte {
	if d.ws() != '"' {
		d.fail("expected string")
		return nil
	}
	d.pos++
	start := d.pos
	for i := start; i < len(d.buf); i++ {
		c := d.buf[i]
		if c == '"' {
			d.pos = i + 1
			return d.buf[start:i]
		}
		if c == '\\' || c < ' ' || c >= utf8.RuneSelf {
			d.pos = i
			return d.unescape(append(d.key[:0], d.buf[start:i]...))
		}
	}
	d.pos = len(d.buf)
	d.fail("unterminated string")
	return nil
}

// unescape is str's slow path from d.pos, appending to out.
func (d *decoder) unescape(out []byte) []byte {
	defer func() { d.key = out[:0] }()
	for d.pos < len(d.buf) {
		c := d.buf[d.pos]
		switch {
		case c == '"':
			d.pos++
			return out
		case c < ' ':
			d.fail("control character in string")
			return nil
		case c < utf8.RuneSelf && c != '\\':
			out = append(out, c)
			d.pos++
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRune(d.buf[d.pos:])
			out = utf8.AppendRune(out, r)
			d.pos += n
		default:
			if d.pos+1 >= len(d.buf) {
				d.fail("unterminated string")
				return nil
			}
			e := d.buf[d.pos+1]
			d.pos += 2
			switch e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := d.hex4()
				if r < 0 {
					d.fail("invalid \\u escape")
					return nil
				}
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if bytes.HasPrefix(d.buf[d.pos:], []byte(`\u`)) {
						save := d.pos
						d.pos += 2
						r2 = d.hex4()
						if r2 < 0 {
							d.pos = save
						}
					}
					if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
						r = dec
					} else {
						// Not a pair: r becomes U+FFFD and the second
						// escape, if any, is decoded on its own.
						r = utf8.RuneError
						if r2 >= 0 {
							d.pos -= 6
						}
					}
				}
				out = utf8.AppendRune(out, r)
			default:
				d.fail("invalid escape")
				return nil
			}
		}
	}
	d.fail("unterminated string")
	return nil
}

// hex4 consumes four hex digits, returning -1 if they are not.
func (d *decoder) hex4() rune {
	if d.pos+4 > len(d.buf) {
		return -1
	}
	var r rune
	for _, c := range d.buf[d.pos : d.pos+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	d.pos += 4
	return r
}

// number consumes a JSON number and returns its literal, reporting whether
// it has neither fraction nor exponent.
func (d *decoder) number() (lit []byte, integer bool) {
	if d.err != nil {
		return nil, false
	}
	d.ws()
	b, start, i := d.buf, d.pos, d.pos
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for i++; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		}
	default:
		d.fail("expected number")
		return nil, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		integer = false
		i++
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			d.pos = i
			d.fail("invalid number")
			return nil, false
		}
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integer = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			d.pos = i
			d.fail("invalid number")
			return nil, false
		}
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		}
	}
	d.pos = i
	return b[start:i], integer
}

// int consumes an integer that fits int.
func (d *decoder) int() int {
	lit, integer := d.number()
	if d.err != nil {
		return 0
	}
	if !integer {
		d.fail("number %s is not an integer", lit)
		return 0
	}
	digits := lit
	if digits[0] == '-' {
		digits = digits[1:]
	}
	if len(digits) <= 18 && strconv.IntSize == 64 {
		v := 0
		for _, c := range digits {
			v = v*10 + int(c-'0')
		}
		if lit[0] == '-' {
			v = -v
		}
		return v
	}
	v, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if err != nil {
		d.fail("number %s overflows int", lit)
	}
	return int(v)
}

// float consumes a number as a float64.
func (d *decoder) float() float64 {
	lit, _ := d.number()
	if d.err != nil {
		return 0
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		d.fail("number %s out of float64 range", lit)
	}
	return v
}

// floatList consumes an array of numbers (or null) into an exact-length
// slice of its own.
func (d *decoder) floatList() []float64 {
	if d.null() || !d.open('[') {
		return nil
	}
	for more := d.elem(true); more; more = d.elem(false) {
		d.floats = append(d.floats, d.float())
	}
	return take(&d.floats)
}

// take copies a scratch list out at its exact length and empties it,
// dropping the pool's references to what the list points at.
func take[T any](scratch *[]T) []T {
	out := make([]T, len(*scratch))
	copy(out, *scratch)
	clear(*scratch)
	*scratch = (*scratch)[:0]
	return out
}

// intList consumes an array of integers (or null).
func (d *decoder) intList() []int {
	if d.null() || !d.open('[') {
		return nil
	}
	for more := d.elem(true); more; more = d.elem(false) {
		d.ints = append(d.ints, d.int())
	}
	return take(&d.ints)
}

// ingest consumes an IngestRequest (or null, which leaves req empty).
func (d *decoder) ingest(req *IngestRequest) {
	if d.null() || !d.open('{') {
		return
	}
	var seen uint32
	for f := d.member(ingestFields, &seen, true); f >= 0; f = d.member(ingestFields, &seen, false) {
		switch f {
		case 0:
			req.Reducers = d.reducerList()
		case 1:
			req.Intents = d.intentList()
		case 2:
			req.DoneJobs = d.intList()
		}
	}
}

func (d *decoder) reducerList() []WireReducerUp {
	if d.null() || !d.open('[') {
		return nil
	}
	for more := d.elem(true); more; more = d.elem(false) {
		d.ups = append(d.ups, WireReducerUp{})
		d.reducer(&d.ups[len(d.ups)-1])
	}
	return take(&d.ups)
}

func (d *decoder) intentList() []WireIntent {
	if d.null() || !d.open('[') {
		return nil
	}
	for more := d.elem(true); more; more = d.elem(false) {
		d.intents = append(d.intents, WireIntent{})
		d.intent(&d.intents[len(d.intents)-1])
	}
	return take(&d.intents)
}

// reducer consumes a reducer-up object into *up, which is zero.
func (d *decoder) reducer(up *WireReducerUp) {
	if !d.open('{') {
		return
	}
	var seen uint32
	for f := d.member(reducerFields, &seen, true); f >= 0; f = d.member(reducerFields, &seen, false) {
		if d.null() {
			continue
		}
		switch f {
		case 0:
			up.Job = d.int()
		case 1:
			up.Reduce = d.int()
		case 2:
			up.Host = d.int()
		}
	}
}

// intent consumes an intent object into *in, which is zero.
func (d *decoder) intent(in *WireIntent) {
	if !d.open('{') {
		return
	}
	var seen uint32
	for f := d.member(intentFields, &seen, true); f >= 0; f = d.member(intentFields, &seen, false) {
		if f == 4 {
			in.PredictedWireBytes = d.floatList()
			continue
		}
		if d.null() {
			continue
		}
		switch f {
		case 0:
			in.Job = d.int()
		case 1:
			in.Map = d.int()
		case 2:
			in.Attempt = d.int()
		case 3:
			in.SrcHost = d.int()
		}
	}
}

// batch consumes a WireBatch (or null, which leaves b empty).
func (d *decoder) batch(b *WireBatch) {
	if d.null() || !d.open('{') {
		return
	}
	var seen uint32
	for f := d.member(batchFields, &seen, true); f >= 0; f = d.member(batchFields, &seen, false) {
		switch {
		case f == 1:
			b.Ops = d.opList()
		case !d.null():
			b.VirtualSec = d.float()
		}
	}
}

// opList consumes the ops array. Its intents and reducer placements share
// one exact-length backing array each; only an intent's byte predictions
// are allocated per op.
func (d *decoder) opList() []WireOp {
	if d.null() || !d.open('[') {
		return nil
	}
	for more := d.elem(true); more; more = d.elem(false) {
		d.ops = append(d.ops, scanOp{intent: -1, reducer: -1})
		d.op(&d.ops[len(d.ops)-1])
	}
	intents, ups := take(&d.intents), take(&d.ups)
	out := make([]WireOp, len(d.ops))
	for i, o := range d.ops {
		out[i] = WireOp{Kind: o.kind, Job: o.job}
		if o.intent >= 0 {
			out[i].Intent = &intents[o.intent]
		}
		if o.reducer >= 0 {
			out[i].Reducer = &ups[o.reducer]
		}
	}
	clear(d.ops)
	d.ops = d.ops[:0]
	return out
}

// op consumes one journaled op object.
func (d *decoder) op(o *scanOp) {
	if !d.open('{') {
		return
	}
	var seen uint32
	for f := d.member(opFields, &seen, true); f >= 0; f = d.member(opFields, &seen, false) {
		if d.null() {
			continue
		}
		switch f {
		case 0:
			o.kind = internKind(d.str())
		case 1:
			o.intent = len(d.intents)
			d.intents = append(d.intents, WireIntent{})
			d.intent(&d.intents[o.intent])
		case 2:
			o.reducer = len(d.ups)
			d.ups = append(d.ups, WireReducerUp{})
			d.reducer(&d.ups[o.reducer])
		case 3:
			o.job = d.int()
		}
	}
}

// internKind returns the op kind constant equal to s, or a copy of s.
func internKind(s []byte) string {
	for _, k := range [...]string{wireKindIntent, wireKindReducerUp, wireKindJobDone} {
		if string(s) == k {
			return k
		}
	}
	return string(s)
}
