// Package obs is oldend's request-tracing layer: a zero-dependency span
// tree per sampled request, W3C traceparent propagation so context
// survives HTTP hops, and live introspection over the results.
//
// The simulator already answers "where did the cycles go" for one run
// (internal/trace records every migration and miss on the virtual
// clock); this package answers the same question one level up, for one
// *request* through the serving layer: admission → queue wait → cache
// probes → execution phases → serialization. A sampled request carries a
// per-request trace.Recorder down into the simulator, so a single export
// shows the service span tree and the simulation events under it — the
// paper's Table 2 discipline (attribute every cycle to a mechanism)
// applied to p99 latency instead of makespan.
//
// The cost discipline mirrors the trace recorder's: a nil *Span is the
// unsampled state, every method is nil-safe, and an unsampled request
// allocates no spans at all (pinned by an AllocsPerRun test). Sampling
// is decided once at admission — locally (1-in-N) or by honoring the
// sampled flag of an incoming traceparent, which is what lets a future
// router force-trace one request across process boundaries.
package obs

import (
	"encoding/hex"
	"errors"
)

// TraceID is the W3C trace-id: 16 bytes, all-zero meaning absent.
type TraceID [16]byte

// IsZero reports whether the id is the invalid all-zero id.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the id as 32 lowercase hex characters.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// SpanID is the W3C parent-id: 8 bytes, all-zero meaning absent.
type SpanID [8]byte

// IsZero reports whether the id is the invalid all-zero id.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the id as 16 lowercase hex characters.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// ParseTraceID parses 32 hex characters into a TraceID.
func ParseTraceID(s string) (TraceID, error) {
	var t TraceID
	if len(s) != 32 {
		return t, errBadTraceID
	}
	if _, err := hex.Decode(t[:], []byte(s)); err != nil {
		return t, errBadTraceID
	}
	return t, nil
}

// Context is a propagated trace context: who the caller is (trace and
// parent span ids) and whether the trace is sampled.
type Context struct {
	TraceID TraceID
	SpanID  SpanID
	Sampled bool
}

// Valid reports whether both ids are present (non-zero), per the W3C
// validity rules.
func (c Context) Valid() bool { return !c.TraceID.IsZero() && !c.SpanID.IsZero() }

// Traceparent renders the context in the W3C traceparent format:
// version 00, lowercase hex, the sampled bit in the trace-flags octet.
func (c Context) Traceparent() string {
	buf := make([]byte, 0, 55)
	buf = append(buf, "00-"...)
	buf = hex.AppendEncode(buf, c.TraceID[:])
	buf = append(buf, '-')
	buf = hex.AppendEncode(buf, c.SpanID[:])
	if c.Sampled {
		buf = append(buf, "-01"...)
	} else {
		buf = append(buf, "-00"...)
	}
	return string(buf)
}

// Traceparent parse errors. These are sentinels (not formatted) so that
// rejecting a header on the request hot path allocates nothing.
var (
	errEmptyTraceparent = errors.New("obs: empty traceparent")
	errBadTraceparent   = errors.New("obs: malformed traceparent")
	errBadVersion       = errors.New("obs: invalid traceparent version")
	errBadTraceID       = errors.New("obs: invalid trace-id")
	errBadSpanID        = errors.New("obs: invalid parent-id")
)

// ParseTraceparent parses a W3C traceparent header value:
//
//	version "-" trace-id "-" parent-id "-" trace-flags
//	   00       32 hex       16 hex       2 hex
//
// Per the spec: version ff is invalid; version 00 must be exactly 55
// characters; a higher version is parsed by its version-00 prefix as
// long as any extra content is "-"-separated. All-zero trace or parent
// ids are invalid. The empty string parses to the zero Context with an
// error, so absent headers cost one comparison and no allocation.
func ParseTraceparent(s string) (Context, error) {
	var c Context
	if s == "" {
		return c, errEmptyTraceparent
	}
	if len(s) < 55 {
		return c, errBadTraceparent
	}
	ver, ok := hexByte(s[0], s[1])
	if !ok || ver == 0xff {
		return c, errBadVersion
	}
	if ver == 0x00 && len(s) != 55 {
		return c, errBadTraceparent
	}
	if ver != 0x00 && len(s) > 55 && s[55] != '-' {
		return c, errBadTraceparent
	}
	if s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return c, errBadTraceparent
	}
	for i := 0; i < 16; i++ {
		b, ok := hexByte(s[3+2*i], s[4+2*i])
		if !ok {
			return Context{}, errBadTraceID
		}
		c.TraceID[i] = b
	}
	if c.TraceID.IsZero() {
		return Context{}, errBadTraceID
	}
	for i := 0; i < 8; i++ {
		b, ok := hexByte(s[36+2*i], s[37+2*i])
		if !ok {
			return Context{}, errBadSpanID
		}
		c.SpanID[i] = b
	}
	if c.SpanID.IsZero() {
		return Context{}, errBadSpanID
	}
	flags, ok := hexByte(s[53], s[54])
	if !ok {
		return Context{}, errBadTraceparent
	}
	c.Sampled = flags&0x01 != 0
	return c, nil
}

// hexByte decodes two lower-case hex digits without allocating (hex.Decode
// needs a byte slice and accepts upper case): two table loads, one test.
func hexByte(hi, lo byte) (byte, bool) {
	h, l := hexNibble[hi]-1, hexNibble[lo]-1 // a non-digit wraps to 0xff
	return h<<4 | l, h|l < 16
}

// hexNibble holds 1 + the value of each of [0-9a-f], 0 for any other byte.
var hexNibble = func() (t [256]byte) {
	for i, c := range "0123456789abcdef" {
		t[c] = byte(i + 1)
	}
	return t
}()
