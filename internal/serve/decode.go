package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
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
//     are the same key; encoding/json merged them),
//   - a null array element (encoding/json stored a zero value), and
//   - a journal record whose "ops" is present and not null: the retired
//     ops form, refused whole with errOpsForm rather than decoded.
//
// Keys match a field name exactly or, after unescaping, under Unicode
// case folding (bytes.EqualFold), as in encoding/json. A null field value
// means the field is absent. The scan that checks a number against the
// JSON grammar also folds its digits into a significand w (up to 19
// significant digits) and a decimal exponent q. Integer fields read w and
// reject fractions, exponents and values outside int. Float fields take
// the float64 nearest the literal, ties to even, which is
// strconv.ParseFloat's value bit for bit: exactFloat converts w×10^q
// itself when the literal has at most 19 significant digits and |q| ≤ 19,
// and any other literal goes to strconv.ParseFloat.
// The differential fuzz targets in decode_test.go hold the decoder to
// encoding/json, and TestNumberConversionMatchesStrconv the converter to
// strconv.

// Field names per object, in struct order; decode_test.go checks them
// against the json tags.
var (
	ingestFields  = []string{"reducers", "intents", "done_jobs"}
	intentFields  = []string{"job", "map", "attempt", "src_host", "predicted_wire_bytes"}
	reducerFields = []string{"job", "reduce", "host"}
	batchFields   = []string{"virtual_sec", "ops", "requests"}
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
	reqs    []IngestRequest
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

// readIngest reads a whole body into d.buf and decodes it.
func (d *decoder) readIngest(r io.Reader) (*IngestRequest, error) {
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

// num is a scanned JSON number: ±w×10^q when nd ≤ 19. A longer literal
// keeps only its first 19 significant digits in w.
type num struct {
	lit     []byte
	w       uint64
	nd      int // significant digits, leading zeros not counted
	q       int // 1e4 for an exponent of 1e4 or more, whatever the fraction
	neg     bool
	integer bool // neither fraction nor exponent
}

// fold folds up to limit digits of b from i into w, returning the index
// of the first byte it did not fold and the new w.
func fold(b []byte, i int, w uint64, limit int) (int, uint64) {
	for end := min(len(b), i+limit); i < end && b[i]-'0' <= 9; i++ {
		w = w*10 + uint64(b[i]-'0')
	}
	return i, w
}

// skipDigits returns the index of the first non-digit of b from i.
func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// number consumes a JSON number into *n, which is zero, folding its
// digits as it validates them.
func (d *decoder) number(n *num) {
	if d.err != nil {
		return
	}
	d.ws()
	b, start, i := d.buf, d.pos, d.pos
	if i < len(b) && b[i] == '-' {
		n.neg = true
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		j, w := fold(b, i, 0, 19)
		end := skipDigits(b, j)
		n.w, n.nd, i = w, end-i, end
	default:
		d.fail("expected number")
		return
	}
	n.integer = true
	if i < len(b) && b[i] == '.' {
		n.integer = false
		i++
		sig := i
		if n.w == 0 {
			for sig < len(b) && b[sig] == '0' {
				sig++
			}
		}
		j, w := fold(b, sig, n.w, 19-n.nd)
		end := skipDigits(b, j)
		if end == i {
			d.pos = i
			d.fail("invalid number")
			return
		}
		n.w, n.nd, n.q, i = w, n.nd+end-sig, i-end, end
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		n.integer = false
		i++
		neg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			neg = b[i] == '-'
			i++
		}
		e, j := 0, i
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if e < 1e4 {
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == j {
			d.pos = i
			d.fail("invalid number")
			return
		}
		switch {
		case e >= 1e4:
			// strconv stops reading exponent digits here, so such a
			// literal must reach it: any q past ±19 sends it there.
			n.q = 1e4
		case neg:
			n.q -= e
		default:
			n.q += e
		}
	}
	d.pos = i
	n.lit = b[start:i]
}

// int consumes an integer that fits int.
func (d *decoder) int() int {
	var n num
	d.number(&n)
	switch {
	case d.err != nil:
		return 0
	case !n.integer:
		d.fail("number %s is not an integer", n.lit)
		return 0
	case n.nd > 19 || n.w > math.MaxInt && !(n.neg && n.w == math.MaxInt+1):
		d.fail("number %s overflows int", n.lit)
		return 0
	case n.neg:
		return -int(n.w) // w = MaxInt+1 wraps to math.MinInt
	}
	return int(n.w)
}

// float consumes a number as a float64: the value nearest the literal,
// ties to even, as strconv.ParseFloat rounds it.
func (d *decoder) float() float64 {
	var n num
	d.number(&n)
	if d.err != nil {
		return 0
	}
	var v float64
	switch {
	case n.w == 0: // ±0, whatever the exponent
	case n.nd <= 19 && -19 <= n.q && n.q <= 19:
		v = exactFloat(n.w, n.q)
	default:
		f, err := strconv.ParseFloat(string(n.lit), 64)
		if err != nil {
			d.fail("number %s out of float64 range", n.lit)
		}
		return f
	}
	if n.neg {
		v = -v
	}
	return v
}

// pow10 holds every power of ten a uint64 holds.
var pow10 = [20]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// exactFloat returns the float64 nearest w×10^q, ties to even, for w > 0
// and |q| ≤ 19. It takes the top 64 bits m of the exact value and a sticky
// bit for any below them — from the 128-bit product w×10^q, or from the
// quotient and remainder of w over 10^-q with both normalised — and rounds
// m to 53 bits. Every such value lies in [1e-19, 1e38], so the result is a
// normal float64.
func exactFloat(w uint64, q int) float64 {
	var m uint64 // the value is (m + a fraction) × 2^e, m's top bit set
	var e int
	var sticky bool // the fraction is not zero
	if q >= 0 {
		hi, lo := bits.Mul64(w, pow10[q])
		if hi == 0 {
			s := bits.LeadingZeros64(lo)
			m, e = lo<<s, -s
		} else {
			s := bits.LeadingZeros64(hi)
			m, e = hi<<s|lo>>(64-s), 64-s
			sticky = lo<<s != 0
		}
	} else {
		ds := bits.LeadingZeros64(pow10[-q])
		ws := bits.LeadingZeros64(w)
		div, n := pow10[-q]<<ds, w<<ws
		// Divide n×2^64 (n×2^63 if n ≥ div): Div64 needs hi < div, and the
		// quotient then lands in [2^63, 2^64).
		hi, lo, s := n, uint64(0), 64
		if n >= div {
			hi, lo, s = n>>1, n<<63, 63
		}
		quo, rem := bits.Div64(hi, lo, div)
		m, e, sticky = quo, ds-ws-s, rem != 0
	}
	mant, rest := m>>11, m&(1<<11-1)
	if rest > 1<<10 || rest == 1<<10 && (sticky || mant&1 != 0) {
		mant++
	}
	// The value is mant × 2^(e+11) with mant in [2^52, 2^53], so its biased
	// exponent is e+11+52+1023. Adding mant whole puts its top bit into the
	// exponent field as one, and a carry to 2^53 as two.
	return math.Float64frombits(uint64(e+1085)<<52 + mant)
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

// batch consumes a WireBatch (or null, which leaves b empty). A record
// whose ops is present and not null is refused with errOpsForm.
func (d *decoder) batch(b *WireBatch) {
	if d.null() || !d.open('{') {
		return
	}
	var seen uint32
	for f := d.member(batchFields, &seen, true); f >= 0; f = d.member(batchFields, &seen, false) {
		switch {
		case f == 1:
			if !d.null() && d.err == nil {
				d.err = errOpsForm
			}
		case f == 2:
			b.Requests = d.requestList()
		case !d.null():
			b.VirtualSec = d.float()
		}
	}
}

// errOpsForm refuses a record in the ops form (one lowered operation per
// element of "ops"), which servers wrote before records became request
// bodies.
var errOpsForm = errors.New("ops-form journal record (\"ops\" is not null), a retired format; " + upgradePath)

// requestList consumes a record's requests array.
func (d *decoder) requestList() []IngestRequest {
	if d.null() || !d.open('[') {
		return nil
	}
	for more := d.elem(true); more; more = d.elem(false) {
		d.reqs = append(d.reqs, IngestRequest{})
		d.ingest(&d.reqs[len(d.reqs)-1])
	}
	return take(&d.reqs)
}
