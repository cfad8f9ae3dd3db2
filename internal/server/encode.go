package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"toporouting/internal/topocache"
)

// Streaming response encoding for the stateless endpoints. The hot paths
// write response bytes directly from the topology's internal representation
// into a pooled buffer — no intermediate response structs, no reflection —
// and the output is byte-identical to what encoding/json produced for the
// old struct-based responses (including float formatting, omitempty
// semantics, and the json.Encoder trailing newline). encode_test.go pins
// that equivalence against encoding/json itself.

// encodeState is the pooled per-response scratch: the output buffer and the
// neighbor-sort scratch the edge streamer uses.
type encodeState struct {
	out []byte
	nbr []int32
}

var encodeStatePool = sync.Pool{New: func() any { return new(encodeState) }}

func getEncodeState() *encodeState {
	st := encodeStatePool.Get().(*encodeState)
	st.out = st.out[:0]
	return st
}

func putEncodeState(st *encodeState) {
	// Same retention cap as the session encode buffers: a one-off huge
	// response must not pin its buffer in the pool forever.
	if cap(st.out) <= maxPooledBuf {
		encodeStatePool.Put(st)
	}
}

// appendJSONFloat appends f exactly as encoding/json renders a float64:
// shortest round-trip representation, 'f' format except for very small or
// very large magnitudes, with the exponent's leading zero trimmed.
func appendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// encoding/json cleans up e-09 to e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string exactly as encoding/json does
// with the default HTML escaping: \", \\, \n, \r, \t, \u00XX for other
// control characters, </>/& for <, >, &,  /  for
// the JS line separators, and � for invalid UTF-8.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if r == ' ' || r == ' ' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// encodeTopologyResult streams a /v1/topology success body from the built
// network, field for field what json.Encoder emitted for topologyResponse.
func encodeTopologyResult(st *encodeState, v *topologyResult) {
	b := st.out
	b = append(b, `{"mode":`...)
	b = appendJSONString(b, v.mode)
	b = append(b, `,"n":`...)
	b = strconv.AppendInt(b, int64(v.nw.N()), 10)
	numEdges := v.nw.NumEdges()
	b = append(b, `,"num_edges":`...)
	b = strconv.AppendInt(b, int64(numEdges), 10)
	b = append(b, `,"max_degree":`...)
	b = strconv.AppendInt(b, int64(v.nw.MaxDegree()), 10)
	b = append(b, `,"degree_bound":`...)
	b = strconv.AppendInt(b, int64(v.nw.DegreeBound()), 10)
	b = append(b, `,"connected":`...)
	b = strconv.AppendBool(b, v.nw.Connected())
	b = append(b, `,"theta":`...)
	b = appendJSONFloat(b, v.nw.Options().Theta)
	b = append(b, `,"range":`...)
	b = appendJSONFloat(b, v.nw.Options().Range)
	// omitempty: the edges array appears only when requested and non-empty.
	if v.includeEdges && numEdges > 0 {
		b = append(b, `,"edges":[`...)
		st.out = b
		b = appendEdges(st, v)
	}
	if v.dist != nil {
		b = append(b, `,"dist_report":{"sent":`...)
		b = strconv.AppendInt(b, v.dist.Sent, 10)
		b = append(b, `,"delivered":`...)
		b = strconv.AppendInt(b, v.dist.Delivered, 10)
		b = append(b, `,"dropped":`...)
		b = strconv.AppendInt(b, v.dist.Dropped, 10)
		b = append(b, `,"rounds":`...)
		b = strconv.AppendInt(b, v.dist.Rounds, 10)
		b = append(b, `,"crashes":`...)
		b = strconv.AppendInt(b, v.dist.Crashes, 10)
		b = append(b, `,"converged":`...)
		b = strconv.AppendBool(b, v.dist.Converged)
		b = append(b, '}')
	}
	b = append(b, `,"elapsed_ms":`...)
	b = appendJSONFloat(b, v.elapsedMS)
	b = append(b, '}', '\n')
	st.out = b
}

// appendEdges streams the sorted [u, v] (u < v) edge pairs straight from
// the adjacency lists: for each u ascending, its higher-numbered neighbors
// sorted ascending — exactly the order graph.Edges() returns after its
// lexicographic sort, without materializing the edge slice.
func appendEdges(st *encodeState, v *topologyResult) []byte {
	b := st.out
	n := v.nw.N()
	first := true
	for u := 0; u < n; u++ {
		st.nbr = st.nbr[:0]
		for _, w := range v.nw.Neighbors(u) {
			if int(w) > u {
				st.nbr = append(st.nbr, w)
			}
		}
		sortInt32(st.nbr)
		for _, w := range st.nbr {
			if !first {
				b = append(b, ',')
			}
			first = false
			b = append(b, '[')
			b = strconv.AppendInt(b, int64(u), 10)
			b = append(b, ',')
			b = strconv.AppendInt(b, int64(w), 10)
			b = append(b, ']')
		}
	}
	return append(b, ']')
}

// sortInt32 is an insertion sort: neighbor lists are degree-bounded (≤ 2k),
// so this beats a general sort and allocates nothing.
func sortInt32(a []int32) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// encodeInterferenceResult streams a /v1/interference success body,
// replicating interferenceResponse's omitempty semantics (the transmission
// fields appear only when non-zero).
func encodeInterferenceResult(st *encodeState, v *interferenceResult) {
	b := st.out
	b = append(b, `{"n":`...)
	b = strconv.AppendInt(b, int64(v.n), 10)
	b = append(b, `,"num_edges":`...)
	b = strconv.AppendInt(b, int64(v.numEdges), 10)
	b = append(b, `,"interference":`...)
	b = strconv.AppendInt(b, int64(v.interference), 10)
	if v.transmissionEdges != 0 {
		b = append(b, `,"transmission_edges":`...)
		b = strconv.AppendInt(b, int64(v.transmissionEdges), 10)
	}
	if v.transmissionInterference != 0 {
		b = append(b, `,"transmission_interference":`...)
		b = strconv.AppendInt(b, int64(v.transmissionInterference), 10)
	}
	b = append(b, `,"elapsed_ms":`...)
	b = appendJSONFloat(b, v.elapsedMS)
	b = append(b, '}', '\n')
	st.out = b
}

// encodeJSONValue encodes v with encoding/json into the state buffer — the
// fallback for response shapes not worth a hand streamer (simulate results).
// The bytes match writeJSON's exactly (Encoder semantics incl. newline).
func encodeJSONValue(st *encodeState, v any) error {
	buf := getEncodeBuf()
	defer putEncodeBuf(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		return err
	}
	st.out = append(st.out, buf.Bytes()...)
	return nil
}

// requestDigest is the response-cache key of a request: SHA-256 over, in
// order, the endpoint name and a NUL; the canonical JSON of v, the parsed
// request with its point list nil (so whitespace, key order, key case and
// unknown keys never split keys); the point count; and the little-endian
// Float64bits of every coordinate. The JSON ends in a newline and the count
// fixes the length of what follows, so distinct inputs never run together.
// The caller zeroes fields that do not affect the response (timeout_ms)
// before digesting. Hashing the points' bits costs a few percent of
// re-encoding them as JSON.
func requestDigest(endpoint string, v any, pts [][2]float64) (topocache.Key, bool) {
	buf := getEncodeBuf()
	defer putEncodeBuf(buf)
	buf.WriteString(endpoint)
	buf.WriteByte(0)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		return topocache.Key{}, false
	}
	buf.Grow(8 + 16*len(pts))
	b := binary.LittleEndian.AppendUint64(buf.Bytes(), uint64(len(pts)))
	for _, p := range pts {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p[0]))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p[1]))
	}
	return sha256.Sum256(b), true
}

// inmMatches reports whether an If-None-Match header value matches the
// given strong ETag: a comma-separated tag list, "*" matching anything.
func inmMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		// A weak validator prefix cannot match our strong tags, but W/"x"
		// with identical quoted bytes is still a weak match per RFC 9110;
		// 304 generation uses weak comparison.
		part = strings.TrimPrefix(part, "W/")
		if part == "*" || part == etag {
			return true
		}
	}
	return false
}
