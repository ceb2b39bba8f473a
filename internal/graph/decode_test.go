package graph

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

// The oracle below decodes with encoding/json reflection into the wire
// structs of io.go, then runs the same constructors and checks as
// decode.go. FuzzDecodeInstance holds the single-pass decoder to it.

type oracleTIG struct{ g *TIG }

func (o *oracleTIG) UnmarshalJSON(data []byte) error {
	var in tigJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	if in.Kind != "" && in.Kind != "tig" {
		return fmt.Errorf("graph: expected kind \"tig\", got %q", in.Kind)
	}
	if len(in.Weights) != in.N {
		return fmt.Errorf("graph: TIG JSON has %d weights for n=%d", len(in.Weights), in.N)
	}
	decoded := NewTIGWithWeights(in.Weights)
	decoded.Name = in.Name
	for _, e := range in.Edges {
		if err := decoded.AddEdge(e.U, e.V, e.Weight); err != nil {
			return err
		}
	}
	if err := decoded.Validate(); err != nil {
		return err
	}
	o.g = decoded
	return nil
}

type oracleResource struct{ r *ResourceGraph }

func (o *oracleResource) UnmarshalJSON(data []byte) error {
	var in resourceJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	if in.Kind != "" && in.Kind != "resource" {
		return fmt.Errorf("graph: expected kind \"resource\", got %q", in.Kind)
	}
	if len(in.Costs) != in.N {
		return fmt.Errorf("graph: resource JSON has %d costs for n=%d", len(in.Costs), in.N)
	}
	var decoded *ResourceGraph
	if in.DenseLink != nil {
		var err error
		decoded, err = NewResourceGraphDense(in.Costs, in.DenseLink)
		if err != nil {
			return err
		}
		decoded.Name = in.Name
	} else {
		decoded = NewResourceGraphWithCosts(in.Costs)
		decoded.Name = in.Name
		for _, e := range in.Links {
			if err := decoded.AddLink(e.U, e.V, e.Weight); err != nil {
				return err
			}
		}
		if in.Closed {
			if err := decoded.CloseLinks(); err != nil {
				return err
			}
		}
	}
	if err := decoded.Validate(); err != nil {
		return err
	}
	o.r = decoded
	return nil
}

type oracleInstance struct {
	TIG      *oracleTIG      `json:"tig"`
	Platform *oracleResource `json:"platform"`
	Seed     uint64          `json:"seed,omitempty"`
}

func oracleReadInstance(data []byte) (*Instance, error) {
	var oi oracleInstance
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&oi); err != nil {
		return nil, err
	}
	in := &Instance{Seed: oi.Seed}
	if oi.TIG != nil {
		in.TIG = oi.TIG.g
	}
	if oi.Platform != nil {
		in.Platform = oi.Platform.r
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// diffFloats reports the first position where a and b differ bit for bit.
func diffFloats(what string, a, b []float64) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%s: %d entries vs %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Sprintf("%s[%d]: %v vs %v", what, i, a[i], b[i])
		}
	}
	return ""
}

func diffEdges(what string, a, b []Edge) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%s: %d edges vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i].U != b[i].U || a[i].V != b[i].V || math.Float64bits(a[i].Weight) != math.Float64bits(b[i].Weight) {
			return fmt.Sprintf("%s[%d]: %+v vs %+v", what, i, a[i], b[i])
		}
	}
	return ""
}

func diffTIG(a, b *TIG) string {
	switch {
	case a.Name != b.Name:
		return fmt.Sprintf("TIG name %q vs %q", a.Name, b.Name)
	case a.N() != b.N():
		return fmt.Sprintf("TIG n %d vs %d", a.N(), b.N())
	}
	if d := diffFloats("weights", a.Weights, b.Weights); d != "" {
		return d
	}
	return diffEdges("edges", a.Edges(), b.Edges())
}

func diffResource(a, b *ResourceGraph) string {
	switch {
	case a.Name != b.Name:
		return fmt.Sprintf("platform name %q vs %q", a.Name, b.Name)
	case a.N() != b.N():
		return fmt.Sprintf("platform n %d vs %d", a.N(), b.N())
	}
	if d := diffFloats("costs", a.Costs, b.Costs); d != "" {
		return d
	}
	if d := diffEdges("links", a.Edges(), b.Edges()); d != "" {
		return d
	}
	return diffFloats("link matrix", a.LinkMatrix(), b.LinkMatrix())
}

// checkDecodeParity decodes data as an instance, a bare TIG and a bare
// platform with both decoders: both must fail, or both succeed with
// bit-identical graphs.
func checkDecodeParity(t *testing.T, data []byte) {
	t.Helper()
	got, errGot := ReadInstance(bytes.NewReader(data))
	want, errWant := oracleReadInstance(data)
	if (errGot == nil) != (errWant == nil) {
		t.Fatalf("instance: decoder error %v, encoding/json error %v", errGot, errWant)
	}
	if errGot == nil {
		if got.Seed != want.Seed {
			t.Fatalf("seed %d vs %d", got.Seed, want.Seed)
		}
		if d := diffTIG(got.TIG, want.TIG); d != "" {
			t.Fatalf("instance: %s", d)
		}
		if d := diffResource(got.Platform, want.Platform); d != "" {
			t.Fatalf("instance: %s", d)
		}
	}

	var tg TIG
	var to oracleTIG
	errGot, errWant = tg.UnmarshalJSON(data), to.UnmarshalJSON(data)
	if (errGot == nil) != (errWant == nil) {
		t.Fatalf("TIG: decoder error %v, encoding/json error %v", errGot, errWant)
	}
	if errGot == nil {
		if d := diffTIG(&tg, to.g); d != "" {
			t.Fatalf("TIG: %s", d)
		}
	}

	var rg ResourceGraph
	var ro oracleResource
	errGot, errWant = rg.UnmarshalJSON(data), ro.UnmarshalJSON(data)
	if (errGot == nil) != (errWant == nil) {
		t.Fatalf("platform: decoder error %v, encoding/json error %v", errGot, errWant)
	}
	if errGot == nil {
		if d := diffResource(&rg, ro.r); d != "" {
			t.Fatalf("platform: %s", d)
		}
	}
}

// decodeSeeds returns the FuzzDecodeInstance seed corpus: the
// FuzzTIGUnmarshal and FuzzResourceUnmarshal seeds, written instances
// and hand-made documents for each JSON rule decode.go keeps.
func decodeSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	seeds := [][]byte{
		[]byte(`{"kind":"tig","n":2,"weights":[1,2],"edges":[{"u":0,"v":1,"w":5}]}`),
		[]byte(`{"kind":"tig","n":0,"weights":[],"edges":[]}`),
		[]byte(`{"kind":"tig","n":2,"weights":[1],"edges":[]}`),
		[]byte(`{}`),
		[]byte(`garbage`),
		[]byte(`{"kind":"resource","n":2,"costs":[1,2],"links":[{"u":0,"v":1,"w":5}]}`),
		[]byte(`{"kind":"resource","n":3,"costs":[1,2,3],"links":[{"u":0,"v":1,"w":5}],"closed":true}`),
		[]byte(`{"kind":"resource","n":1,"costs":[-1],"links":[]}`),
	}

	// A written instance whose sparse platform is closed on load.
	tig := NewTIGWithWeights([]float64{3, 5.5, 7, 2, 1e-3})
	tig.Name = "ring"
	for v := 0; v < 5; v++ {
		tig.MustAddEdge(v, (v+1)%5, float64(10*v+1))
	}
	ring := NewResourceGraphWithCosts([]float64{1, 2, 3, 4, 0.25})
	ring.Name = "ring platform"
	for s := 0; s < 5; s++ {
		ring.MustAddLink(s, (s+1)%5, float64(s+2))
	}
	if err := ring.CloseLinks(); err != nil {
		tb.Fatal(err)
	}
	dense, err := NewResourceGraphDense([]float64{1, 2, 3, 4, 5}, []float64{
		0, 4, 5, 6, 7,
		4, 0, 8, 9, 10,
		5, 8, 0, 11, 12.5,
		6, 9, 11, 0, 13,
		7, 10, 12.5, 13, 0,
	})
	if err != nil {
		tb.Fatal(err)
	}
	for _, p := range []*ResourceGraph{ring, dense} {
		var buf bytes.Buffer
		if err := WriteInstance(&buf, &Instance{TIG: tig, Platform: p, Seed: 9}); err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}

	const tg = `{"kind":"tig","n":2,"weights":[1,2],"edges":[{"u":0,"v":1,"w":5}]}`
	const pf = `{"kind":"resource","n":2,"costs":[1,2],"links":[{"u":0,"v":1,"w":3}]}`
	const base = `{"tig":` + tg + `,"platform":` + pf + `,"seed":7}`
	for _, doc := range []string{
		base,
		// Case-folded and escaped keys.
		`{"TIG":{"KIND":"tig","N":2,"Weights":[1,2],"EDGES":[{"U":0,"V":1,"W":5}]},"Platform":{"Kind":"resource","n":2,"COSTS":[1,2],"Links":[{"u":0,"v":1,"w":3}],"CLOSED":false},"SEED":7}`,
		`{"tig":` + tg + `,"platform":` + pf + `,"ſeed":3}`,
		`{"tig":{"Kind":"tig","n":0,"weights":[]},"platform":` + pf + `}`,
		`{"tig":` + tg + `,"platform":{"kind":"resource","n":2,"costs":[1,2],"dense_linK":[0,3,3,0]}}`,
		// Repeated keys: the last wins, and a repeated array overwrites
		// the earlier one in place.
		`{"tig":{"n":3,"n":2,"weights":[9,9,9],"weights":[1,2],"edges":[]},"platform":` + pf + `}`,
		`{"tig":{"n":2,"weights":[1,2],"weights":[null,5]},"platform":` + pf + `}`,
		`{"tig":{"n":3,"weights":[1,2,3],"weights":[4],"weights":[5,null,null]},"platform":{"n":3,"costs":[1,2,3],"costs":[],"costs":[null,1,1],"links":[{"u":0,"v":1,"w":1},{"u":1,"v":2,"w":1}],"closed":true}}`,
		`{"tig":{"n":2,"weights":[1,2],"edges":[{"u":0,"v":1,"w":5}],"edges":[{"w":6}]},"platform":` + pf + `}`,
		`{"tig":{"n":2,"weights":[1,2],"edges":[{"u":0,"v":1,"w":5}],"edges":[null]},"platform":` + pf + `}`,
		`{"tig":` + tg + `,"platform":{"n":2,"costs":[1,2],"dense_link":[0,4,4,0],"dense_link":[null,null,null,0]}}`,
		`{"tig":` + tg + `,"platform":{"n":2,"costs":[1,2],"dense_link":[0,4,4,0],"dense_link":null,"links":[{"u":0,"v":1,"w":1}]}}`,
		`{"tig":` + tg + `,"platform":{"n":0,"costs":[],"dense_link":[]},"platform":` + pf + `}`,
		`{"tig":{"n":1,"weights":[1]},"tig":` + tg + `,"platform":` + pf + `}`,
		`{"tig":` + tg + `,"tig":null,"platform":` + pf + `}`,
		`{"tig":` + tg + `,"platform":` + pf + `,"seed":5,"seed":null}`,
		`{"tig":{"kind":"tig","kind":null,"name":"a","name":null,"n":2,"weights":[1,2]},"platform":{"n":2,"costs":[1,2],"links":[{"u":0,"v":1,"w":1}],"closed":true,"closed":null}}`,
		// Unknown keys with nested values, valid and not.
		`{"x":{"a":[1,{"b":null,"c":[true,false,"xé\n\/"]}],"d":-1.5e-3},"tig":` + tg + `,"platform":` + pf + `,"y":[[],{}]}`,
		`{"x":[1,],"tig":` + tg + `,"platform":` + pf + `}`,
		`{"x":tru,"tig":` + tg + `,"platform":` + pf + `}`,
		`{"x":"\x","tig":` + tg + `,"platform":` + pf + `}`,
		// Numbers: -0, exponents, long integers, leading zeros, ranges.
		`{"tig":{"n":-0,"weights":[-0],"weights":[]},"platform":{"n":2,"costs":[-0,2],"dense_link":[-0,1e2,100,0]}}`,
		`{"tig":{"n":2,"weights":[1e2,2.5E-1],"edges":[{"u":0,"v":1,"w":1E+2}]},"platform":` + pf + `}`,
		`{"tig":{"n":2,"weights":[1234567890123456789,0.1],"edges":[{"u":0,"v":1,"w":123456789012345}]},"platform":` + pf + `}`,
		`{"tig":{"n":2,"weights":[1e-400,1],"edges":[]},"platform":` + pf + `}`,
		`{"tig":{"n":2,"weights":[1e400,1],"edges":[]},"platform":` + pf + `}`,
		`{"tig":{"n":2,"weights":[01,2]},"platform":` + pf + `}`,
		`{"tig":{"n":2.0,"weights":[1,2]},"platform":` + pf + `}`,
		`{"tig":{"n":2,"weights":[1,2],"edges":[{"u":0,"v":1e0,"w":5}]},"platform":` + pf + `}`,
		`{"tig":` + tg + `,"platform":` + pf + `,"seed":-0}`,
		`{"tig":` + tg + `,"platform":` + pf + `,"seed":18446744073709551615}`,
		`{"tig":` + tg + `,"platform":` + pf + `,"seed":18446744073709551616}`,
		`{"tig":{"n":2,"weights":[1,2],"edges":[{"u":9223372036854775808,"v":1,"w":5}]},"platform":` + pf + `}`,
		`{"tig":{"n":2,"weights":[1,2],"edges":[{"u":-1,"v":1,"w":5}]},"platform":` + pf + `}`,
		`{"tig":{"n":2,"weights":[1,2],"edges":[{"u":0,"v":1,"w":-5}]},"platform":` + pf + `}`,
		`{"tig":{"n":2,"weights":[1,2],"edges":[{"u":0,"v":1,"w":5},{"u":1,"v":0,"w":6}]},"platform":` + pf + `}`,
		// Strings: escapes, invalid UTF-8 and wrong types.
		`{"tig":{"kind":"tig","name":"a\"b\\cé\ud800","n":2,"weights":[1,2]},"platform":` + pf + `}`,
		"{\"tig\":{\"name\":\"\xff\xfe\",\"n\":0,\"weights\":[]},\"platform\":" + pf + "}",
		"{\"tig\":{\"name\":\"a\x01\",\"n\":0,\"weights\":[]},\"platform\":" + pf + "}",
		`{"tig":{"kind":"TIG","n":0,"weights":[]},"platform":` + pf + `}`,
		`{"tig":5,"platform":` + pf + `}`,
		`{"tig":` + tg + `,"platform":"` + `x"}`,
		`{"tig":` + tg + `,"platform":{"n":2,"costs":[1,"2"]}}`,
		`{"tig":` + tg + `,"platform":{"n":2,"costs":[1,2],"closed":1}}`,
		// Trailing bytes after the first value, and no value at all.
		base + ` garbage`,
		base + `{`,
		" \n\t" + base + "}",
		`null`,
		`[]`,
		``,
		`   `,
		`{"tig":` + tg,
	} {
		seeds = append(seeds, []byte(doc))
	}
	return seeds
}

// FuzzDecodeInstance holds the single-pass decoder to the encoding/json
// oracle on arbitrary input.
func FuzzDecodeInstance(f *testing.F) {
	for _, s := range decodeSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(checkDecodeParity)
}

// TestDecodeRules pins what the encoding/json rules decode to, beyond
// agreeing with the oracle.
func TestDecodeRules(t *testing.T) {
	const pf = `"platform":{"n":2,"costs":[1,2],"links":[{"u":0,"v":1,"w":3}]}`
	cases := []struct {
		doc     string
		weights []float64
		edges   []Edge
		seed    uint64
	}{
		{`{"TIG":{"N":2,"WEIGHTS":[1,2]},` + pf + `,"ſeed":4}`, []float64{1, 2}, nil, 4},
		{`{"tig":{"n":2,"weights":[1,2],"weights":[null,5]},` + pf + `}`, []float64{1, 5}, nil, 0},
		{`{"tig":{"n":2,"weights":[1,2,3],"weights":[4],"weights":[5,null]},` + pf + `}`, []float64{5, 2}, nil, 0},
		{`{"tig":{"n":2,"weights":[1,2],"weights":[],"weights":[null,null]},` + pf + `}`, []float64{0, 0}, nil, 0},
		{`{"tig":{"n":2,"weights":[1,2],"edges":[{"u":0,"v":1,"w":5}],"edges":[{"w":6}]},` + pf + `}`, []float64{1, 2}, []Edge{{0, 1, 6}}, 0},
		{`{"tig":{"n":2,"weights":[-0,1e-1]},` + pf + `,"seed":3,"seed":null} trailing`, []float64{math.Copysign(0, -1), 0.1}, nil, 3},
	}
	for _, c := range cases {
		in, err := ReadInstance(strings.NewReader(c.doc))
		if err != nil {
			t.Fatalf("%s: %v", c.doc, err)
		}
		if d := diffFloats("weights", in.TIG.Weights, c.weights); d != "" {
			t.Errorf("%s: %s", c.doc, d)
		}
		if d := diffEdges("edges", in.TIG.Edges(), c.edges); d != "" {
			t.Errorf("%s: %s", c.doc, d)
		}
		if in.Seed != c.seed {
			t.Errorf("%s: seed %d, want %d", c.doc, in.Seed, c.seed)
		}
	}
	for _, doc := range []string{
		`{"tig":{"n":2,"weights":[1,2]},` + pf + `,"seed":-0}`,
		`{"tig":{"n":2.0,"weights":[1,2]},` + pf + `}`,
		`{"tig":{"n":2,"weights":[01,2]},` + pf + `}`,
		`{"tig":{"n":2,"weights":[1,2]},"tig":null,` + pf + `}`,
		`{"tig":{"n":2,"weights":[1,2]},` + pf + `,"x":[1,]}`,
	} {
		if _, err := ReadInstance(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", doc)
		}
	}
}

// TestDecodeDepthLimit: like encoding/json, the decoder refuses nesting
// deeper than 10000 levels, counted from the outermost value.
func TestDecodeDepthLimit(t *testing.T) {
	doc := func(depth int) []byte {
		// The instance object is level 1, the unknown value's arrays the rest.
		return []byte(`{"tig":{"n":0,"weights":[]},"platform":{"n":0,"costs":[]},"x":` +
			strings.Repeat("[", depth-1) + strings.Repeat("]", depth-1) + `}`)
	}
	if _, err := ReadInstance(bytes.NewReader(doc(maxDepth))); err != nil {
		t.Fatalf("depth %d refused: %v", maxDepth, err)
	}
	if _, err := ReadInstance(bytes.NewReader(doc(maxDepth + 1))); err == nil {
		t.Fatalf("depth %d accepted", maxDepth+1)
	}
	checkDecodeParity(t, doc(maxDepth))
	checkDecodeParity(t, doc(maxDepth+1))
}

// TestDecodeDenseLinkParity decodes a larger dense platform, whose link
// matrix the decoder reads straight into the platform's storage.
func TestDecodeDenseLinkParity(t *testing.T) {
	const n = 40
	costs := make([]float64, n)
	link := make([]float64, n*n)
	for s := 0; s < n; s++ {
		costs[s] = float64(s%5) + 0.5
		for b := s + 1; b < n; b++ {
			c := float64((s*31+b*17)%97) + float64(b%3)/4
			link[s*n+b], link[b*n+s] = c, c
		}
	}
	r, err := NewResourceGraphDense(costs, link)
	if err != nil {
		t.Fatal(err)
	}
	tig := NewTIGWithWeights(append([]float64(nil), costs...))
	for v := 1; v < n; v++ {
		tig.MustAddEdge(v-1, v, float64(v))
	}
	var buf bytes.Buffer
	if err := WriteInstance(&buf, &Instance{TIG: tig, Platform: r}); err != nil {
		t.Fatal(err)
	}
	checkDecodeParity(t, buf.Bytes())
	// An asymmetric entry must fail both decoders.
	r.link[1] += 0.5
	buf.Reset()
	if err := WriteInstance(&buf, &Instance{TIG: tig, Platform: r}); err != nil {
		t.Fatal(err)
	}
	bad := buf.Bytes()
	if _, err := ReadInstance(bytes.NewReader(bad)); err == nil {
		t.Fatal("asymmetric dense link matrix accepted")
	}
	checkDecodeParity(t, bad)
}
