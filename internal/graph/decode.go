package graph

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
)

// This file holds the one decoder for instance JSON: ReadInstance,
// TIG.UnmarshalJSON and ResourceGraph.UnmarshalJSON all run it. It reads
// the bytes once, with no reflection, and accepts exactly the documents
// that encoding/json accepts for the wire structs of io.go, decoding them
// to the same values:
//
//   - keys match case-insensitively (bytes.EqualFold) and the last of a
//     repeated key wins;
//   - null leaves a scalar as it was and sets a slice or graph to nil;
//   - an array decoded into a slice that already holds elements (a
//     repeated key) overwrites them in place, so a null element keeps the
//     value it had;
//   - unknown keys are skipped, but their values must be valid JSON;
//   - n, u, v and seed take integers only;
//   - nesting deeper than 10000 levels is an error.
//
// Every error condition of encoding/json is kept, though not its error
// text.

// maxDepth is encoding/json's nesting limit, counted from the outermost
// value.
const maxDepth = 10000

// decoder is a cursor over one JSON document.
type decoder struct {
	data  []byte
	pos   int
	depth int
}

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("graph: JSON offset %d: %s", d.pos, fmt.Sprintf(format, args...))
}

// unexpected reports the byte at the cursor, or the end of the input.
func (d *decoder) unexpected(context string) error {
	if d.pos >= len(d.data) {
		return d.errorf("unexpected end of input %s", context)
	}
	return d.errorf("invalid character %q %s", d.data[d.pos], context)
}

// ws skips whitespace and returns the next byte, or 0 at the end.
func (d *decoder) ws() byte {
	for d.pos < len(d.data) {
		switch c := d.data[d.pos]; c {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return c
		}
	}
	return 0
}

// peek returns the byte at the cursor, or 0 at the end.
func (d *decoder) peek() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

// typeError reports a value of the wrong JSON type for field.
func (d *decoder) typeError(field string) error {
	return d.unexpected("at the start of the value of " + field)
}

// literal consumes word if the input continues with it.
func (d *decoder) literal(word string) bool {
	if bytes.HasPrefix(d.data[d.pos:], []byte(word)) {
		d.pos += len(word)
		return true
	}
	return false
}

// null consumes a null literal if one starts at the cursor.
func (d *decoder) null() (bool, error) {
	if d.peek() != 'n' {
		return false, nil
	}
	if !d.literal("null") {
		return false, d.unexpected("in literal null")
	}
	return true, nil
}

// enter and leave bracket one object or array level.
func (d *decoder) enter() error {
	d.depth++
	if d.depth > maxDepth {
		return d.errorf("exceeded max depth %d", maxDepth)
	}
	d.pos++
	return nil
}

func (d *decoder) leave() {
	d.depth--
	d.pos++
}

// object walks the object starting at the cursor. For each member it
// calls member with the decoded key and the cursor on the value, which
// member must consume.
func (d *decoder) object(member func(key []byte) error) error {
	if err := d.enter(); err != nil {
		return err
	}
	if d.ws() == '}' {
		d.leave()
		return nil
	}
	for {
		if d.ws() != '"' {
			return d.unexpected("looking for beginning of object key string")
		}
		start := d.pos
		raw, escaped, err := d.str()
		if err != nil {
			return err
		}
		key := raw
		if escaped {
			var s string
			if err := json.Unmarshal(d.data[start:d.pos], &s); err != nil {
				return err
			}
			key = []byte(s)
		}
		if d.ws() != ':' {
			return d.unexpected("after object key")
		}
		d.pos++
		d.ws()
		if err := member(key); err != nil {
			return err
		}
		switch d.ws() {
		case ',':
			d.pos++
		case '}':
			d.leave()
			return nil
		default:
			return d.unexpected("after object key:value pair")
		}
	}
}

// array walks the array starting at the cursor, calling elem with the
// element index and the cursor on the element, which elem must consume.
// It returns the element count.
func (d *decoder) array(elem func(i int) error) (int, error) {
	if err := d.enter(); err != nil {
		return 0, err
	}
	if d.ws() == ']' {
		d.leave()
		return 0, nil
	}
	for i := 0; ; i++ {
		if err := elem(i); err != nil {
			return 0, err
		}
		switch d.ws() {
		case ',':
			d.pos++
			d.ws()
		case ']':
			d.leave()
			return i + 1, nil
		default:
			return 0, d.unexpected("after array element")
		}
	}
}

// str consumes the string token at the cursor (on its opening quote) and
// returns the bytes between the quotes and whether they hold an escape.
func (d *decoder) str() (raw []byte, escaped bool, err error) {
	d.pos++
	start := d.pos
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		switch {
		case c == '"':
			d.pos++
			return d.data[start : d.pos-1], escaped, nil
		case c == '\\':
			escaped = true
			d.pos++
			if d.pos >= len(d.data) {
				return nil, false, d.unexpected("in string escape code")
			}
			switch d.data[d.pos] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.pos++
			case 'u':
				d.pos++
				for k := 0; k < 4; k++ {
					if d.pos >= len(d.data) || !isHex(d.data[d.pos]) {
						return nil, false, d.unexpected("in \\u hexadecimal character escape")
					}
					d.pos++
				}
			default:
				return nil, false, d.unexpected("in string escape code")
			}
		case c < 0x20:
			return nil, false, d.unexpected("in string literal")
		default:
			d.pos++
		}
	}
	return nil, false, d.unexpected("in string literal")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// stringValue decodes a string field. The token goes through
// json.Unmarshal, so escapes and invalid UTF-8 decode as encoding/json
// decodes them; null leaves *s as it was.
func (d *decoder) stringValue(s *string, field string) error {
	if ok, err := d.null(); ok || err != nil {
		return err
	}
	if d.peek() != '"' {
		return d.typeError(field)
	}
	start := d.pos
	if _, _, err := d.str(); err != nil {
		return err
	}
	return json.Unmarshal(d.data[start:d.pos], s)
}

// boolValue decodes a bool field; null leaves *b as it was.
func (d *decoder) boolValue(b *bool, field string) error {
	if ok, err := d.null(); ok || err != nil {
		return err
	}
	switch {
	case d.literal("true"):
		*b = true
	case d.literal("false"):
		*b = false
	default:
		return d.typeError(field)
	}
	return nil
}

// num is one JSON number token.
type num struct {
	tok    []byte
	neg    bool   // leading minus sign
	mant   uint64 // value of the integer digits, exact when digits <= 19
	digits int    // count of integer digits
	plain  bool   // no fraction and no exponent
}

// number consumes the JSON number at the cursor, checking its grammar. A
// value of any other type is a type error for field.
func (d *decoder) number(field string) (num, error) {
	var n num
	data := d.data
	p := d.pos
	if c := d.peek(); c != '-' && (c < '0' || c > '9') {
		return n, d.typeError(field)
	}
	if data[p] == '-' {
		n.neg = true
		p++
	}
	switch {
	case p < len(data) && data[p] == '0':
		p++
		n.digits = 1
	case p < len(data) && '1' <= data[p] && data[p] <= '9':
		for p < len(data) && '0' <= data[p] && data[p] <= '9' {
			n.mant = n.mant*10 + uint64(data[p]-'0')
			n.digits++
			p++
		}
	default:
		d.pos = p
		return n, d.unexpected("in numeric literal")
	}
	n.plain = true
	if p < len(data) && data[p] == '.' {
		n.plain = false
		p++
		if p >= len(data) || data[p] < '0' || data[p] > '9' {
			d.pos = p
			return n, d.unexpected("after decimal point in numeric literal")
		}
		for p < len(data) && '0' <= data[p] && data[p] <= '9' {
			p++
		}
	}
	if p < len(data) && (data[p] == 'e' || data[p] == 'E') {
		n.plain = false
		p++
		if p < len(data) && (data[p] == '+' || data[p] == '-') {
			p++
		}
		if p >= len(data) || data[p] < '0' || data[p] > '9' {
			d.pos = p
			return n, d.unexpected("in exponent of numeric literal")
		}
		for p < len(data) && '0' <= data[p] && data[p] <= '9' {
			p++
		}
	}
	n.tok = data[d.pos:p]
	d.pos = p
	return n, nil
}

// floatValue decodes a float64 field; null leaves *v as it was. A plain
// integer of up to 15 digits is exact in a float64 and converts directly;
// every other number goes through strconv.ParseFloat, as in
// encoding/json, so the result is bit-identical either way (-0 included).
func (d *decoder) floatValue(v *float64, field string) error {
	if ok, err := d.null(); ok || err != nil {
		return err
	}
	// Fast path for the common token, an unsigned integer of at most 15
	// digits without a leading zero, ended by a byte that cannot continue
	// a number.
	data, p := d.data, d.pos
	var mant uint64
	for p < len(data) && p-d.pos < 16 && '0' <= data[p] && data[p] <= '9' {
		mant = mant*10 + uint64(data[p]-'0')
		p++
	}
	if k := p - d.pos; k > 0 && k <= 15 && (k == 1 || data[d.pos] != '0') &&
		(p == len(data) || data[p] != '.' && data[p] != 'e' && data[p] != 'E') {
		d.pos = p
		*v = float64(mant)
		return nil
	}
	n, err := d.number(field)
	if err != nil {
		return err
	}
	if n.plain && n.digits <= 15 {
		*v = float64(n.mant)
		if n.neg {
			*v = -*v
		}
		return nil
	}
	f, err := strconv.ParseFloat(string(n.tok), 64)
	if err != nil {
		return fmt.Errorf("graph: number %s for %s: %w", n.tok, field, err)
	}
	*v = f
	return nil
}

// intValue decodes an int field, which takes integers only; null leaves
// *v as it was.
func (d *decoder) intValue(v *int, field string) error {
	if ok, err := d.null(); ok || err != nil {
		return err
	}
	n, err := d.number(field)
	if err != nil {
		return err
	}
	if !n.plain {
		return fmt.Errorf("graph: number %s for %s is not an integer", n.tok, field)
	}
	x := int64(n.mant)
	if n.neg {
		x = -x
	}
	if n.digits > 18 {
		if x, err = strconv.ParseInt(string(n.tok), 10, 64); err != nil {
			return fmt.Errorf("graph: number %s for %s: %w", n.tok, field, err)
		}
	}
	if int64(int(x)) != x {
		return fmt.Errorf("graph: number %s for %s overflows int", n.tok, field)
	}
	*v = int(x)
	return nil
}

// uintValue decodes a uint64 field: a non-negative integer, with no sign
// at all (encoding/json rejects "-0" here). Null leaves *v as it was.
func (d *decoder) uintValue(v *uint64, field string) error {
	if ok, err := d.null(); ok || err != nil {
		return err
	}
	n, err := d.number(field)
	if err != nil {
		return err
	}
	if !n.plain || n.neg {
		return fmt.Errorf("graph: number %s for %s is not an unsigned integer", n.tok, field)
	}
	x := n.mant
	if n.digits > 19 {
		if x, err = strconv.ParseUint(string(n.tok), 10, 64); err != nil {
			return fmt.Errorf("graph: number %s for %s: %w", n.tok, field, err)
		}
	}
	*v = x
	return nil
}

// skip consumes any JSON value, checking that it is well formed.
func (d *decoder) skip() error {
	switch c := d.ws(); {
	case c == '{':
		return d.object(func([]byte) error { return d.skip() })
	case c == '[':
		_, err := d.array(func(int) error { return d.skip() })
		return err
	case c == '"':
		_, _, err := d.str()
		return err
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.number("")
		return err
	case d.literal("true") || d.literal("false") || d.literal("null"):
		return nil
	}
	return d.unexpected("looking for beginning of value")
}

// grow extends s by one element the way encoding/json does when it
// decodes array element i into a slice: an element within the slice's
// capacity keeps what it held, one past it starts at zero.
func grow[T any](s []T, i int) []T {
	if i < len(s) {
		return s
	}
	if i < cap(s) {
		return s[:i+1]
	}
	var zero T
	return append(s, zero)
}

// floats decodes an array of numbers into s with encoding/json's slice
// semantics: null yields a nil slice, [] a fresh empty one, and any other
// array overwrites s element by element, a null element leaving its slot
// as it was. sizeHint, if positive, pre-sizes a slice with no capacity.
func (d *decoder) floats(s []float64, field string, sizeHint int) ([]float64, error) {
	if ok, err := d.null(); ok || err != nil {
		return nil, err
	}
	if d.peek() != '[' {
		return nil, d.typeError(field)
	}
	if cap(s) == 0 && sizeHint > 0 {
		// Every element takes at least two bytes, so the hint cannot
		// outgrow the input.
		s = make([]float64, 0, min(sizeHint, (len(d.data)-d.pos)/2+1))
	}
	n, err := d.array(func(i int) error {
		s = grow(s, i)
		return d.floatValue(&s[i], field)
	})
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return []float64{}, nil
	}
	return s[:n], nil
}

// edges decodes an array of {"u","v","w"} objects into s with the slice
// semantics of floats; an element object sets only the fields it names.
func (d *decoder) edges(s []edgeJSON, field string) ([]edgeJSON, error) {
	if ok, err := d.null(); ok || err != nil {
		return nil, err
	}
	if d.peek() != '[' {
		return nil, d.typeError(field)
	}
	n, err := d.array(func(i int) error {
		s = grow(s, i)
		switch d.peek() {
		case 'n':
			_, err := d.null()
			return err
		case '{':
		default:
			return d.typeError(field)
		}
		e := &s[i]
		return d.object(func(key []byte) error {
			switch {
			case bytes.EqualFold(key, []byte("u")):
				return d.intValue(&e.U, "u")
			case bytes.EqualFold(key, []byte("v")):
				return d.intValue(&e.V, "v")
			case bytes.EqualFold(key, []byte("w")):
				return d.floatValue(&e.Weight, "w")
			}
			return d.skip()
		})
	})
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return []edgeJSON{}, nil
	}
	return s[:n], nil
}

// tig decodes the TIG object (or null) at the cursor into in.
func (d *decoder) tig(in *tigJSON) error {
	if ok, err := d.null(); ok || err != nil {
		return err
	}
	if d.peek() != '{' {
		return d.typeError("tig")
	}
	return d.object(func(key []byte) error {
		var err error
		switch {
		case bytes.EqualFold(key, []byte("kind")):
			return d.stringValue(&in.Kind, "kind")
		case bytes.EqualFold(key, []byte("name")):
			return d.stringValue(&in.Name, "name")
		case bytes.EqualFold(key, []byte("n")):
			return d.intValue(&in.N, "n")
		case bytes.EqualFold(key, []byte("weights")):
			in.Weights, err = d.floats(in.Weights, "weights", 0)
		case bytes.EqualFold(key, []byte("edges")):
			in.Edges, err = d.edges(in.Edges, "edges")
		default:
			err = d.skip()
		}
		return err
	})
}

// resource decodes the platform object (or null) at the cursor into in.
func (d *decoder) resource(in *resourceJSON) error {
	if ok, err := d.null(); ok || err != nil {
		return err
	}
	if d.peek() != '{' {
		return d.typeError("platform")
	}
	return d.object(func(key []byte) error {
		var err error
		switch {
		case bytes.EqualFold(key, []byte("kind")):
			return d.stringValue(&in.Kind, "kind")
		case bytes.EqualFold(key, []byte("name")):
			return d.stringValue(&in.Name, "name")
		case bytes.EqualFold(key, []byte("n")):
			return d.intValue(&in.N, "n")
		case bytes.EqualFold(key, []byte("costs")):
			in.Costs, err = d.floats(in.Costs, "costs", 0)
		case bytes.EqualFold(key, []byte("links")):
			in.Links, err = d.edges(in.Links, "links")
		case bytes.EqualFold(key, []byte("closed")):
			return d.boolValue(&in.Closed, "closed")
		case bytes.EqualFold(key, []byte("dense_link")):
			hint := 0
			if in.N > 0 && in.N <= 1<<24 {
				hint = in.N * in.N
			}
			in.DenseLink, err = d.floats(in.DenseLink, "dense_link", hint)
		default:
			err = d.skip()
		}
		return err
	})
}

// build runs the TIG constructors and checks on a decoded wire form.
func (in *tigJSON) build() (*TIG, error) {
	if in.Kind != "" && in.Kind != "tig" {
		return nil, fmt.Errorf("graph: expected kind \"tig\", got %q", in.Kind)
	}
	if len(in.Weights) != in.N {
		return nil, fmt.Errorf("graph: TIG JSON has %d weights for n=%d", len(in.Weights), in.N)
	}
	t := NewTIGWithWeights(in.Weights)
	t.Name = in.Name
	for _, e := range in.Edges {
		if err := t.AddEdge(e.U, e.V, e.Weight); err != nil {
			return nil, err
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// build runs the platform constructors and checks on a decoded wire form.
// A dense link matrix becomes the platform's link storage as it is, after
// one pass of checkDense, which implies everything Validate checks.
func (in *resourceJSON) build() (*ResourceGraph, error) {
	if in.Kind != "" && in.Kind != "resource" {
		return nil, fmt.Errorf("graph: expected kind \"resource\", got %q", in.Kind)
	}
	if len(in.Costs) != in.N {
		return nil, fmt.Errorf("graph: resource JSON has %d costs for n=%d", len(in.Costs), in.N)
	}
	if in.DenseLink != nil {
		if err := checkDense(in.Costs, in.DenseLink); err != nil {
			return nil, err
		}
		r := ownDense(in.Costs, in.DenseLink)
		r.Name = in.Name
		return r, nil
	}
	r := NewResourceGraphWithCosts(in.Costs)
	r.Name = in.Name
	for _, e := range in.Links {
		if err := r.AddLink(e.U, e.V, e.Weight); err != nil {
			return nil, err
		}
	}
	if in.Closed {
		if err := r.CloseLinks(); err != nil {
			return nil, err
		}
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return r, nil
}

// instance decodes the instance object at the cursor. Each "tig" or
// "platform" value is built as soon as it is read, so an invalid one
// fails the document even if a later key replaces it, as with
// encoding/json.
func (d *decoder) instance() (*Instance, error) {
	var out Instance
	if d.ws() != '{' {
		return nil, d.unexpected("looking for beginning of instance object")
	}
	err := d.object(func(key []byte) error {
		switch {
		case bytes.EqualFold(key, []byte("tig")):
			if ok, err := d.null(); ok || err != nil {
				out.TIG = nil
				return err
			}
			var in tigJSON
			if err := d.tig(&in); err != nil {
				return err
			}
			t, err := in.build()
			out.TIG = t
			return err
		case bytes.EqualFold(key, []byte("platform")):
			if ok, err := d.null(); ok || err != nil {
				out.Platform = nil
				return err
			}
			var in resourceJSON
			if err := d.resource(&in); err != nil {
				return err
			}
			r, err := in.build()
			out.Platform = r
			return err
		case bytes.EqualFold(key, []byte("seed")):
			return d.uintValue(&out.Seed, "seed")
		}
		return d.skip()
	})
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// whole decodes one value with decode and requires nothing but
// whitespace around it, as json.Unmarshal does.
func whole(data []byte, decode func(*decoder) error) error {
	d := &decoder{data: data}
	d.ws()
	if d.pos >= len(data) {
		return d.unexpected("looking for beginning of value")
	}
	if err := decode(d); err != nil {
		return err
	}
	if d.ws(); d.pos < len(data) {
		return d.unexpected("after top-level value")
	}
	return nil
}
