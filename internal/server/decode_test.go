package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"toporouting/internal/topocache"
)

// decodeTrap is one case where a hand-written decoder could part from
// encoding/json: whether the body decodes, and the points a topology
// request gets.
type decodeTrap struct {
	name   string
	body   string
	ok     bool
	points [][2]float64
}

var decodeTraps = []decodeTrap{
	// Key matching.
	{"upper-case key", `{"POINTS":[[1,2]]}`, true, [][2]float64{{1, 2}}},
	{"unicode-folded key", `{"pointſ":[[1,2]]}`, true, [][2]float64{{1, 2}}},
	{"escaped key", `{"\u0070oints":[[1,2]]}`, true, [][2]float64{{1, 2}}},
	{"escaped folded key", `{"POINT\u017f":[[3,4]]}`, true, [][2]float64{{3, 4}}},
	{"near-miss key", `{"point":[[1,2]],"pointss":[[3,4]],"point\u0130":[[5,6]]}`, true, nil},
	{"invalid UTF-8 key", "{\"point\xffs\":[[1,2]],\"dist\":\"a\xffb\"}", true, nil},
	{"duplicate key, last wins", `{"points":[[1,2],[3,4]],"n":5,"Points":[[5,6]]}`, true, [][2]float64{{5, 6}}},
	{"duplicate key keeps under null", `{"points":[[1,2],[3,4]],"points":[null,[null,9]]}`, true, [][2]float64{{1, 2}, {3, 9}}},
	{"duplicate key around others", `{"points":[[1,2]],"mode":"tiled","points":[[3,4],[5,6]],"theta":0.5}`, true, [][2]float64{{3, 4}, {5, 6}}},
	// Inner arrays and null.
	{"short inner arrays over an earlier key", `{"points":[[1,2],[3,4]],"points":[[5],[]]}`, true, [][2]float64{{5, 0}, {0, 0}}},
	{"short and long inner arrays", `{"points":[[1],[],[1,2,3,"x",{"a":[null]},1e400,-0]]}`, true, [][2]float64{{1, 0}, {0, 0}, {1, 2}}},
	{"null elements", `{"points":[null,[null,1],[2,null]]}`, true, [][2]float64{{0, 0}, {0, 1}, {2, 0}}},
	{"points null", `{"points":[[1,2]],"points":null}`, true, [][2]float64{}},
	{"null then points", `{"points":[[1,2]],"points":null,"points":[[null,3]]}`, true, [][2]float64{{0, 3}}},
	{"empty points", `{"points":[]}`, true, [][2]float64{}},
	{"top-level null", `null`, true, [][2]float64{}},
	{"top-level null with space", " \n null \t", true, [][2]float64{}},
	// Numbers and strings.
	{"out of range", `{"points":[[1e400,0]]}`, false, nil},
	{"negative out of range", `{"points":[[0,-1.8e308]]}`, false, nil},
	{"underflow to zero", `{"points":[[1e-400,4.9e-324]]}`, true, [][2]float64{{0, 5e-324}}},
	{"negative zero", `{"points":[[-0,-0.0e5]]}`, true, [][2]float64{{math.Copysign(0, -1), math.Copysign(0, -1)}}},
	{"exponent forms", `{"points":[[1E2,2e+1],[3e-1,0.5E-0]]}`, true, [][2]float64{{100, 20}, {0.3, 0.5}}},
	{"plus sign", `{"points":[[+1,0]]}`, false, nil},
	{"leading zero", `{"points":[[01,0]]}`, false, nil},
	{"bare decimal point", `{"points":[[1.,0]]}`, false, nil},
	{"leading decimal point", `{"points":[[.5,0]]}`, false, nil},
	{"bare exponent", `{"points":[[1e,0]]}`, false, nil},
	{"bare minus", `{"points":[[-,0]]}`, false, nil},
	{"NaN literal", `{"points":[[NaN,0]]}`, false, nil},
	{"Infinity literal", `{"points":[[Infinity,0]]}`, false, nil},
	{"hex number", `{"points":[[0x1p3,0]]}`, false, nil},
	{"string coordinate", `{"points":[["NaN",1]]}`, false, nil},
	{"bool coordinate", `{"points":[[true,1]]}`, false, nil},
	{"array coordinate", `{"points":[[[1],1]]}`, false, nil},
	{"number point", `{"points":[1,2]}`, false, nil},
	{"object point", `{"points":[{"x":1}]}`, false, nil},
	{"string points", `{"points":"[[1,2]]"}`, false, nil},
	{"object points", `{"points":{"x":1}}`, false, nil},
	{"syntax error after type error", `{"points":[["a",1]],"n":}`, false, nil},
	{"bad literal", `{"points":[[nul,1]]}`, false, nil},
	{"bad escape", `{"p\x":1}`, false, nil},
	{"short unicode escape", `{"p\u00":1}`, false, nil},
	{"control byte in string", "{\"dist\":\"a\x01\"}", false, nil},
	// Whitespace and trailing bytes.
	{"whitespace", " \t\r\n{ \"points\" : [ [ 1 , 2 ] , [ 3 , 4 ] ] , \"n\" : 3 }\n ", true, [][2]float64{{1, 2}, {3, 4}}},
	{"form feed is not whitespace", "{\f\"points\":[]}", false, nil},
	{"trailing bytes", `{"points":[[1,2]]} x`, false, nil},
	{"trailing brace", `{"points":[[1,2]]}}`, false, nil},
	{"two objects", `{}{}`, false, nil},
	{"trailing comma in points", `{"points":[[1,2],]}`, false, nil},
	{"trailing comma in object", `{"points":[[1,2]],}`, false, nil},
	{"missing colon", `{"points" [[1,2]]}`, false, nil},
	{"unterminated", `{"points":[[1,2]`, false, nil},
	{"empty body", ``, false, nil},
	{"top-level array", `[[1,2]]`, false, nil},
	{"top-level number", `7`, false, nil},
	// The other fields keep encoding/json's semantics.
	{"other fields", `{"mode":"parallel","theta":0.5,"range":-0,"faults":{"drop":0.1,"x":[1]},"include_edges":true,"timeout_ms":5,"workers":2,"steps":3,"router":{"t":1},"traffic":{"rate":2},"async":false,"dist":"grid","n":9,"seed":-4,"points":[[0.25,0.5]]}`, true, [][2]float64{{0.25, 0.5}}},
	{"other field type error", `{"points":[[1,2]],"n":"3"}`, false, nil},
	{"other field out of range", `{"points":[[1,2]],"n":1e400}`, false, nil},
	{"bench-shaped", `{"include_edges":true,"points":[[0.6046602879796196,0.9405090880450124],[0.6645600532184904,0.4377141871869802]]}`, true, [][2]float64{{0.6046602879796196, 0.9405090880450124}, {0.6645600532184904, 0.4377141871869802}}},
	// encoding/json's nesting limit, inside an ignored point element: the
	// object, the points array and the point are three levels.
	{"nesting at the limit", `{"points":[[1,2,` + strings.Repeat("[", maxNestingDepth-3) + strings.Repeat("]", maxNestingDepth-3) + `]]}`, true, [][2]float64{{1, 2}}},
	{"nesting past the limit", `{"points":[[1,2,` + strings.Repeat("[", maxNestingDepth-2) + strings.Repeat("]", maxNestingDepth-2) + `]]}`, false, nil},
}

// requestTypes makes a fresh value of each request type decodeJSON serves.
var requestTypes = []func() pointsRequest{
	func() pointsRequest { return new(topologyRequest) },
	func() pointsRequest { return new(interferenceRequest) },
	func() pointsRequest { return new(simulateRequest) },
	func() pointsRequest { return new(sessionCreateRequest) },
}

// recycled returns a request that has decoded a field-rich body and was
// then cleared the way the request pools clear it: every field zeroed
// except the point list, which keeps its backing array and old contents.
func recycled(mk func() pointsRequest) pointsRequest {
	r := mk()
	if err := decodeRequest([]byte(`{"points":[[7,8],[9,10],[11,12],[13,14]],"theta":0.4,"n":3,"mode":"distributed","steps":4,"faults":{"drop":0.5}}`), r); err != nil {
		panic(err)
	}
	pts := (*r.pointList())[:0]
	reflect.ValueOf(r).Elem().SetZero()
	*r.pointList() = pts
	return r
}

// checkDecodeMatchesJSON decodes body into every request type three ways —
// json.Unmarshal into a fresh value, decodeRequest into a fresh value and
// decodeRequest into a recycled one — and fails unless all three accept or
// all three reject, with bitwise-equal values when they accept. It reports
// whether the body was accepted.
func checkDecodeMatchesJSON(t *testing.T, body []byte) bool {
	t.Helper()
	accepted := false
	for _, mk := range requestTypes {
		want, got, pooled := mk(), mk(), recycled(mk)
		wantErr := json.Unmarshal(body, want)
		gotErr := decodeRequest(body, got)
		pooledErr := decodeRequest(body, pooled)
		name := reflect.TypeOf(want).Elem().Name()
		if (gotErr == nil) != (wantErr == nil) || (pooledErr == nil) != (wantErr == nil) {
			t.Fatalf("%s %q: decodeRequest err = %v (recycled: %v), encoding/json err = %v", name, body, gotErr, pooledErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		accepted = true
		if !bitsEqual(reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()) {
			t.Fatalf("%s %q:\n decodeRequest %+v\nencoding/json %+v", name, body, got, want)
		}
		if !bitsEqual(reflect.ValueOf(pooled).Elem(), reflect.ValueOf(want).Elem()) {
			t.Fatalf("%s %q: a recycled request decoded differently:\n decodeRequest %+v\nencoding/json %+v", name, body, pooled, want)
		}
	}
	return accepted
}

// bitsEqual reports whether a and b hold the same bits: floats compare by
// Float64bits, so -0 differs from 0. A nil slice equals an empty one:
// encoding/json leaves "points":null nil where the decoder keeps the
// pooled backing array, and no reader can tell the two apart.
func bitsEqual(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return bitsEqual(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !bitsEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !bitsEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
	}
}

// TestDecodeRequestTraps pins every trap: the decoder agrees with
// encoding/json on every request type, and the outcome is the one listed.
func TestDecodeRequestTraps(t *testing.T) {
	for _, c := range decodeTraps {
		t.Run(c.name, func(t *testing.T) {
			if got := checkDecodeMatchesJSON(t, []byte(c.body)); got != c.ok {
				t.Fatalf("accepted = %v, want %v", got, c.ok)
			}
			if c.points == nil {
				return
			}
			var req topologyRequest
			if err := decodeRequest([]byte(c.body), &req); err != nil {
				t.Fatal(err)
			}
			if !bitsEqual(reflect.ValueOf(req.Points), reflect.ValueOf(c.points)) {
				t.Fatalf("points = %v, want %v", req.Points, c.points)
			}
		})
	}
}

// FuzzDecodeRequest checks the decoder against encoding/json on arbitrary
// bodies, for every request type: the same accept/reject answer, and
// bitwise-equal values, for fresh and recycled requests alike. The corpus
// holds one entry per trap; the two 20 KB nesting-limit bodies stay in
// TestDecodeRequestTraps, since minimizing mutants of them stalls a short
// fuzzing run.
func FuzzDecodeRequest(f *testing.F) {
	for _, c := range decodeTraps {
		if len(c.body) < 1024 {
			f.Add([]byte(c.body))
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeMatchesJSON(t, body)
	})
}

// TestCacheKeyIffEqual is the cache key's contract: two requests share a
// key exactly when their decoded requests are equal after the handlers'
// normalization (timeout_ms dropped, centralized mode aliases resolved,
// interference workers dropped). Points compare bit for bit. Other fields
// compare with Go's ==, so a scalar -0 and 0 share a key: they share a
// response, since every option treats 0 as "use the default".
func TestCacheKeyIffEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pick := func(opts ...string) string { return opts[rng.Intn(len(opts))] }
	pointSets := []string{
		`[[0,0],[1,1]]`, `[[-0,0],[1,1]]`, `[[0,0],[1,1.0000000000000002]]`,
		`[[1,1],[0,0]]`, `[[0,0]]`, `[]`, `null`,
	}
	body := func(fields []string) []byte {
		rng.Shuffle(len(fields), func(i, j int) { fields[i], fields[j] = fields[j], fields[i] })
		var b []string
		for _, f := range fields {
			if f != "" {
				b = append(b, f)
			}
		}
		return []byte("{" + strings.Join(b, pick(",", " , ")) + "}")
	}
	type sample struct {
		key  topocache.Key
		view any
		pts  [][2]float64
	}
	check := func(t *testing.T, samples []sample) {
		same, differ := 0, 0
		for i := range samples {
			for j := i + 1; j < len(samples); j++ {
				a, b := samples[i], samples[j]
				equal := reflect.DeepEqual(a.view, b.view) && bitsEqual(reflect.ValueOf(a.pts), reflect.ValueOf(b.pts))
				if (a.key == b.key) != equal {
					t.Fatalf("same key = %v, equal requests = %v:\n%+v %v\n%+v %v", a.key == b.key, equal, a.view, a.pts, b.view, b.pts)
				}
				if equal {
					same++
				} else {
					differ++
				}
			}
		}
		if same < 100 || differ < 100 {
			t.Fatalf("vacuous sample: %d equal pairs, %d unequal", same, differ)
		}
	}

	t.Run("topology", func(t *testing.T) {
		var samples []sample
		for i := 0; i < 400; i++ {
			var req topologyRequest
			b := body([]string{
				pick("", `"points":`+pick(pointSets...), `"Points":`+pick(pointSets...)),
				pick("", `"mode":""`, `"mode":"centralized"`, `"mode":"parallel"`, `"mode":"tiled"`, `"mode":"distributed"`),
				pick("", `"theta":0`, `"theta":-0`, `"theta":0.5`),
				pick("", `"range":1`, `"range":1.0000000000000002`),
				pick("", `"include_edges":false`, `"include_edges":true`),
				pick("", `"timeout_ms":0`, `"timeout_ms":100`),
				pick("", `"faults":null`, `"faults":{}`, `"faults":{"drop":0}`, `"faults":{"drop":0.1}`),
				pick("", `"n":5`, `"dist":"grid"`, `"unknown":[1]`),
			})
			if err := decodeRequest(b, &req); err != nil {
				t.Fatalf("%s: %v", b, err)
			}
			mode := canonicalMode(req.Mode)
			key, ok := topologyKey(&req, mode)
			if !ok {
				t.Fatalf("%s: no key", b)
			}
			view := req
			view.Points, view.TimeoutMS, view.Mode = nil, 0, mode
			samples = append(samples, sample{key, view, req.Points})
		}
		check(t, samples)
	})
	t.Run("interference", func(t *testing.T) {
		var samples []sample
		for i := 0; i < 400; i++ {
			var req interferenceRequest
			b := body([]string{
				pick("", `"points":`+pick(pointSets...)),
				pick("", `"theta":0.5`, `"theta":-0`),
				pick("", `"delta":0.5`, `"delta":0.25`),
				pick("", `"include_transmission":true`),
				pick("", `"workers":1`, `"workers":4`),
				pick("", `"timeout_ms":100`),
			})
			if err := decodeRequest(b, &req); err != nil {
				t.Fatalf("%s: %v", b, err)
			}
			key, ok := interferenceKey(&req)
			if !ok {
				t.Fatalf("%s: no key", b)
			}
			view := req
			view.Points, view.TimeoutMS, view.Workers = nil, 0, 0
			samples = append(samples, sample{key, view, req.Points})
		}
		check(t, samples)
	})
	// The endpoint is part of the key: the same body never shares a key
	// across endpoints.
	var topo topologyRequest
	var intf interferenceRequest
	kt, _ := topologyKey(&topo, "")
	ki, _ := interferenceKey(&intf)
	if kt == ki {
		t.Fatal("topology and interference requests share a key")
	}
}

// benchPointsBody is a /v1/topology body shaped like the repository
// benchmark's: n uniform points in the unit square, each coordinate in
// shortest round-trip form, after "include_edges":true.
func benchPointsBody(n int) []byte {
	r := rand.New(rand.NewSource(1))
	b := []byte(`{"include_edges":true,"points":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendFloat(b, r.Float64(), 'g', -1, 64)
		b = append(b, ',')
		b = strconv.AppendFloat(b, r.Float64(), 'g', -1, 64)
		b = append(b, ']')
	}
	return append(b, ']', '}')
}

// BenchmarkDecodeTopologyRequestN2000 is the ingest layer alone: one
// n=2000 bench-shaped body decoded into a pooled topology request.
func BenchmarkDecodeTopologyRequestN2000(b *testing.B) {
	body := benchPointsBody(2000)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		req := topoReqPool.Get().(*topologyRequest)
		if err := decodeRequest(body, req); err != nil {
			b.Fatal(err)
		}
		putTopologyReq(req)
	}
}

// discardWriter is a ResponseWriter that keeps the status and headers and
// drops the body.
type discardWriter struct {
	header http.Header
	code   int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkServeCacheHitPointsN2000 is one in-process cache hit on an
// explicit n=2000 point list shaped like the repository benchmark's: body
// read, decode, digest, cache lookup and the memoized body write, with no
// network in between.
func BenchmarkServeCacheHitPointsN2000(b *testing.B) {
	s := New(Config{Workers: 1})
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			b.Fatal(err)
		}
	})
	h := s.Handler()
	body := benchPointsBody(2000)
	w := &discardWriter{header: http.Header{}}
	serve := func() {
		clear(w.header)
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/topology", bytes.NewReader(body)))
		if w.code != http.StatusOK {
			b.Fatalf("status %d", w.code)
		}
	}
	serve() // the miss that fills the cache
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
		if got := w.header.Get("X-Cache"); got != "hit" {
			b.Fatalf("X-Cache = %q, want hit", got)
		}
	}
}
