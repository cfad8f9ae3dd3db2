package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// One-pass request ingest. An explicit point list is almost all of a
// request body, and json.Unmarshal reads it twice: once to validate the
// whole body, once more to decode each number through reflection.
// decodeRequest reads the body once. It parses the value of the points key
// itself, straight into the request's (pooled) [][2]float64, and hands the
// raw bytes of every other key, in order, to a single json.Unmarshal, so
// those fields keep encoding/json's exact semantics. It accepts and rejects
// exactly what json.Unmarshal does, and decodes to the same values
// (decode_test.go and FuzzDecodeRequest pin it against encoding/json):
//
//   - every key encoding/json binds to the points field is a points key:
//     keys match case-insensitively under Unicode simple folding
//     ("POINTS", "pointſ"), after unescaping ("points");
//   - a repeated points key decodes into the list the earlier one left, as
//     encoding/json does, so the last one wins except where it has null;
//   - a null point or coordinate leaves the value in place (zero in a
//     fresh list); a short inner array zero-fills, and a long one has its
//     extra elements validated and dropped;
//   - "points": null empties the list, and a top-level null is a no-op;
//   - numbers follow JSON's grammar and strconv.ParseFloat's range, so
//     1e400 is an error and -0 keeps its sign;
//   - whitespace is JSON's four bytes, and nothing may follow the object.
//
// Error messages differ from encoding/json's; every error is a 400.

// pointsRequest is a request body that carries an explicit point list.
type pointsRequest interface {
	pointList() *[][2]float64
}

func (p *pointSpec) pointList() *[][2]float64 { return &p.Points }

// maxNestingDepth is encoding/json's limit on nested arrays and objects.
const maxNestingDepth = 10000

// decodeRequest decodes a JSON request body into dst.
func decodeRequest(data []byte, dst pointsRequest) error {
	d := ingest{data: data}
	d.ws()
	if d.i == len(data) || data[d.i] != '{' {
		// Not an object: a top-level null (a no-op), a type error or a
		// syntax error. None has points to parse, so encoding/json's
		// answer is exact and cheap.
		return json.Unmarshal(data, dst)
	}
	pts := dst.pointList()
	var rest []byte // {"key":value,...} of every key but the points keys
	err := d.object(1, func(key []byte, escaped bool) error {
		if isPointsKey(key, escaped) {
			return d.points(pts)
		}
		v0 := d.i
		if err := d.skip(1); err != nil {
			return err
		}
		if rest == nil {
			rest = append(make([]byte, 0, 128), '{')
		} else {
			rest = append(rest, ',')
		}
		rest = append(rest, key...)
		rest = append(rest, ':')
		rest = append(rest, data[v0:d.i]...)
		return nil
	})
	if err != nil {
		return err
	}
	d.ws()
	if d.i < len(data) {
		return d.syntaxError("after top-level value")
	}
	if rest == nil {
		return nil
	}
	return json.Unmarshal(append(rest, '}'), dst)
}

// isPointsKey reports whether encoding/json binds the object key (with its
// quotes) to the points field: an exact or case-folded match of "points".
// No other request field folds to "points", so the exact-match preference
// cannot pick a different field.
func isPointsKey(key []byte, escaped bool) bool {
	if !escaped {
		return bytes.EqualFold(key[1:len(key)-1], []byte("points"))
	}
	var s string
	if json.Unmarshal(key, &s) != nil {
		return false
	}
	return strings.EqualFold(s, "points")
}

// ingest is the scanner state: the body and the read offset.
type ingest struct {
	data []byte
	i    int
}

func (d *ingest) ws() {
	for d.i < len(d.data) {
		switch d.data[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

var errUnexpectedEnd = errors.New("unexpected end of JSON input")

// syntaxError describes the byte at the read offset, or the end of input.
func (d *ingest) syntaxError(context string) error {
	if d.i >= len(d.data) {
		return errUnexpectedEnd
	}
	return fmt.Errorf("invalid character %q %s", d.data[d.i], context)
}

// next reports whether the byte at the read offset is c, and if so moves
// past it and the whitespace after it.
func (d *ingest) next(c byte) bool {
	if d.i == len(d.data) || d.data[d.i] != c {
		return false
	}
	d.i++
	d.ws()
	return true
}

// array walks the array at the read offset (its '['), at nesting level
// depth. It calls elem at the first byte of each element, with the
// element's index, and returns the element count.
func (d *ingest) array(depth int, elem func(k int) error) (int, error) {
	if depth > maxNestingDepth {
		return 0, errors.New("exceeded max depth")
	}
	d.next('[')
	if d.next(']') {
		return 0, nil
	}
	for k := 0; ; k++ {
		if err := elem(k); err != nil {
			return k, err
		}
		d.ws()
		if d.next(']') {
			return k + 1, nil
		}
		if !d.next(',') {
			return k + 1, d.syntaxError("after array element")
		}
	}
}

// object walks the object at the read offset (its '{'), at nesting level
// depth. It calls member at the first byte of each value, with the
// member's key, quotes included, and whether the key has an escape.
func (d *ingest) object(depth int, member func(key []byte, escaped bool) error) error {
	if depth > maxNestingDepth {
		return errors.New("exceeded max depth")
	}
	d.next('{')
	if d.next('}') {
		return nil
	}
	for {
		if d.i == len(d.data) || d.data[d.i] != '"' {
			return d.syntaxError("looking for beginning of object key string")
		}
		k0 := d.i
		escaped, err := d.str()
		if err != nil {
			return err
		}
		key := d.data[k0:d.i]
		d.ws()
		if !d.next(':') {
			return d.syntaxError("after object key")
		}
		if err := member(key, escaped); err != nil {
			return err
		}
		d.ws()
		if d.next('}') {
			return nil
		}
		if !d.next(',') {
			return d.syntaxError("after object key:value pair")
		}
	}
}

// points decodes the value at the read offset into *pts as encoding/json
// decodes into a [][2]float64 field. Elements *pts already holds (from an
// earlier points key of the same body) are decoded in place; the list
// grows by zero elements and is cut to the array's length.
func (d *ingest) points(pts *[][2]float64) error {
	if d.i == len(d.data) {
		return errUnexpectedEnd
	}
	switch d.data[d.i] {
	case 'n':
		*pts = (*pts)[:0]
		return d.literal("null")
	case '[':
	default:
		return d.typeError(1, "[][2]float64")
	}
	p := *pts
	n, err := d.array(2, func(k int) error {
		if k == len(p) {
			p = append(p, [2]float64{})
		}
		return d.point(&p[k])
	})
	if err == nil {
		p = p[:n]
	}
	*pts = p
	return err
}

// point decodes one element of the points array into e, as encoding/json
// decodes into a [2]float64: a short array zero-fills, and a long one has
// its extra elements validated and dropped.
func (d *ingest) point(e *[2]float64) error {
	if d.i == len(d.data) {
		return errUnexpectedEnd
	}
	switch d.data[d.i] {
	case 'n':
		return d.literal("null")
	case '[':
	default:
		return d.typeError(2, "[2]float64")
	}
	k, err := d.array(3, func(k int) error {
		if k < len(e) {
			return d.coord(&e[k])
		}
		return d.skip(3)
	})
	for ; k < len(e); k++ {
		e[k] = 0
	}
	return err
}

// coord decodes one coordinate into x; null leaves x as it is.
func (d *ingest) coord(x *float64) error {
	if d.i == len(d.data) {
		return errUnexpectedEnd
	}
	switch c := d.data[d.i]; {
	case c == '-' || '0' <= c && c <= '9':
		num, err := d.number()
		if err != nil {
			return err
		}
		f, err := strconv.ParseFloat(string(num), 64)
		if err != nil {
			return fmt.Errorf("cannot unmarshal number %s into a float64 point coordinate", num)
		}
		*x = f
		return nil
	case c == 'n':
		return d.literal("null")
	default:
		return d.typeError(3, "float64")
	}
}

// typeError skips the value at the read offset, which sits in a container
// at nesting level depth, and reports that it cannot decode into a value
// of Go type into — or the value's syntax error, which encoding/json
// reports first.
func (d *ingest) typeError(depth int, into string) error {
	kind := "number"
	switch d.data[d.i] {
	case '"':
		kind = "string"
	case '{':
		kind = "object"
	case '[':
		kind = "array"
	case 't', 'f':
		kind = "bool"
	}
	if err := d.skip(depth); err != nil {
		return err
	}
	return fmt.Errorf("cannot unmarshal %s into the points field's %s", kind, into)
}

// skip validates the value at the read offset, which sits in a container
// at nesting level depth, and moves past it.
func (d *ingest) skip(depth int) error {
	if d.i == len(d.data) {
		return errUnexpectedEnd
	}
	switch c := d.data[d.i]; {
	case c == '"':
		_, err := d.str()
		return err
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.number()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '[':
		_, err := d.array(depth+1, func(int) error { return d.skip(depth + 1) })
		return err
	case c == '{':
		return d.object(depth+1, func([]byte, bool) error { return d.skip(depth + 1) })
	default:
		return d.syntaxError("looking for beginning of value")
	}
}

// literal moves past word (true, false or null) at the read offset.
func (d *ingest) literal(word string) error {
	for k := 0; k < len(word); k++ {
		if d.i == len(d.data) {
			return errUnexpectedEnd
		}
		if d.data[d.i] != word[k] {
			return d.syntaxError("in literal " + word)
		}
		d.i++
	}
	return nil
}

// str moves past the string at the read offset (its opening quote) and
// reports whether it holds a backslash escape.
func (d *ingest) str() (escaped bool, err error) {
	d.i++
	for d.i < len(d.data) {
		switch c := d.data[d.i]; {
		case c == '"':
			d.i++
			return escaped, nil
		case c == '\\':
			escaped = true
			d.i++
			if d.i == len(d.data) {
				return escaped, errUnexpectedEnd
			}
			switch d.data[d.i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.i++
			case 'u':
				d.i++
				for k := 0; k < 4; k++ {
					if d.i == len(d.data) {
						return escaped, errUnexpectedEnd
					}
					if !isHex(d.data[d.i]) {
						return escaped, d.syntaxError(`in \u hexadecimal character escape`)
					}
					d.i++
				}
			default:
				return escaped, d.syntaxError("in string escape code")
			}
		case c < 0x20:
			return escaped, d.syntaxError("in string literal")
		default:
			d.i++
		}
	}
	return escaped, errUnexpectedEnd
}

// number moves past the JSON number at the read offset and returns its
// bytes: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *ingest) number() ([]byte, error) {
	data, i := d.data, d.i
	start := i
	if data[i] == '-' {
		i++
	}
	switch {
	case i == len(data):
		return nil, errUnexpectedEnd
	case data[i] == '0':
		i++
	case '1' <= data[i] && data[i] <= '9':
		i = digits(data, i+1)
	default:
		d.i = i
		return nil, d.syntaxError("in numeric literal")
	}
	if i < len(data) && data[i] == '.' {
		i++
		if i == len(data) || !isDigit(data[i]) {
			d.i = i
			return nil, d.syntaxError("after decimal point in numeric literal")
		}
		i = digits(data, i+1)
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i == len(data) || !isDigit(data[i]) {
			d.i = i
			return nil, d.syntaxError("in exponent of numeric literal")
		}
		i = digits(data, i+1)
	}
	d.i = i
	return data[start:i], nil
}

// digits returns the offset of the first non-digit at or after i.
func digits(data []byte, i int) int {
	for i < len(data) && isDigit(data[i]) {
		i++
	}
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}
