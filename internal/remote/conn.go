package remote

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"extract/internal/faultinject"
)

// RemoteError is a classified failure of one remote call: which replica,
// which failure class, and the underlying error when there is one. The
// router treats most kinds as grounds for failover to a peer replica
// (evaluation is idempotent and side-effect free); only genuine query
// classifications (empty query, cancellation, deadline) propagate as the
// sentinels the local path would have returned.
type RemoteError struct {
	Addr string
	Kind string
	Msg  string
	Err  error
}

// RemoteError kinds.
const (
	ErrKindTransport   = "transport"   // dial/read/write failure or injected network fault
	ErrKindProtocol    = "protocol"    // malformed, corrupt or version-skewed frame
	ErrKindSkew        = "skew"        // response from a different snapshot generation
	ErrKindPanic       = "panic"       // server recovered a panic evaluating the request
	ErrKindInternal    = "internal"    // any other server-side failure
	ErrKindBadShard    = "bad-shard"   // replica refused a shard it does not own
	ErrKindUnavailable = "unavailable" // every replica of the group failed
)

func (e *RemoteError) Error() string {
	s := "remote: " + e.Kind
	if e.Addr != "" {
		s += " (" + e.Addr + ")"
	}
	if e.Msg != "" {
		s += ": " + e.Msg
	}
	if e.Err != nil {
		s += ": " + e.Err.Error()
	}
	return s
}

func (e *RemoteError) Unwrap() error { return e.Err }

// errSkew marks a response whose generation fingerprint disagrees with the
// placement the router computed — a reload window; failover may find a
// replica already on the router's generation.
var errSkew = errors.New("remote: snapshot generation skew")

// Replica circuit breaker: after breakerThreshold consecutive failures the
// replica is skipped for an exponentially growing backoff (it is still
// probed when every peer in its group is also open — half-open probing
// needs no separate state, just ordering).
const (
	breakerThreshold = 3
	breakerBase      = 100 * time.Millisecond
	breakerMax       = 5 * time.Second
	maxIdleConns     = 4
)

// dialFunc dials one replica; tests substitute in-process pipes.
type dialFunc func(ctx context.Context, addr string) (net.Conn, error)

func netDial(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	return d.DialContext(ctx, "tcp", addr)
}

// wireConn is one established protocol connection: greeted, framed,
// strictly request/response.
type wireConn struct {
	nc    net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	hello helloMsg
}

// roundTrip sends one request and returns the reply's type and payload,
// read into buf when it fits.
func (c *wireConn) roundTrip(t msgType, payload, buf []byte) (msgType, []byte, error) {
	if err := writeFrame(c.bw, t, payload); err != nil {
		return 0, nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return 0, nil, err
	}
	return readFrameInto(c.br, buf)
}

// maxPooledFrame bounds the response payloads framePool keeps: a
// whole-document answer's megabytes are left to the collector.
const maxPooledFrame = 1 << 20

// framePool recycles the router's response payloads. A payload is released
// (putFrame) as soon as nothing aliases it: at once for the small answers
// decoded in full, and at the end of a query for the eval and full answers
// whose scanned ranges live until the query has copied out what it keeps.
var framePool sync.Pool // of *[]byte

func getFrame() []byte {
	if p, ok := framePool.Get().(*[]byte); ok {
		return *p
	}
	return nil
}

func putFrame(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledFrame {
		return
	}
	b = b[:0]
	framePool.Put(&b)
}

// handshake reads the server greeting. A peer of another wire version
// fails here, on its first frame, as a version-skew *ProtocolError.
func (c *wireConn) handshake() error {
	t, payload, err := readFrame(c.br)
	if err != nil {
		return err
	}
	if t != msgHello {
		return protocolErrf("expected hello, got message type %d", t)
	}
	c.hello, err = decodeHello(payload)
	return err
}

// replica is one shard-server address with its idle-connection pool and
// circuit breaker. Safe for concurrent use.
type replica struct {
	addr string
	dial dialFunc

	mu        sync.Mutex
	idle      []*wireConn
	fails     int // consecutive failures
	openUntil time.Time
	closed    bool
}

// available reports whether the breaker admits a call right now.
func (r *replica) available(now time.Time) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return now.After(r.openUntil)
}

func (r *replica) noteSuccess() {
	r.mu.Lock()
	r.fails = 0
	r.openUntil = time.Time{}
	r.mu.Unlock()
}

// noteFailure counts one failure, opens the breaker past the threshold and
// drops pooled connections (a failing replica's idle connections are
// likely dead too, and retrying through them would burn failover
// attempts).
func (r *replica) noteFailure() {
	r.mu.Lock()
	r.fails++
	if r.fails >= breakerThreshold {
		backoff := breakerBase << uint(minInt(r.fails-breakerThreshold, 5))
		if backoff > breakerMax {
			backoff = breakerMax
		}
		r.openUntil = time.Now().Add(backoff)
	}
	idle := r.idle
	r.idle = nil
	r.mu.Unlock()
	for _, c := range idle {
		c.nc.Close()
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// get returns a pooled connection or dials and greets a fresh one.
func (r *replica) get(ctx context.Context) (*wireConn, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, net.ErrClosed
	}
	if n := len(r.idle); n > 0 {
		c := r.idle[n-1]
		r.idle = r.idle[:n-1]
		r.mu.Unlock()
		return c, nil
	}
	r.mu.Unlock()
	nc, err := r.dial(ctx, r.addr)
	if err != nil {
		return nil, err
	}
	c := &wireConn{nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}
	stop := context.AfterFunc(ctx, func() { nc.SetDeadline(time.Unix(1, 0)) })
	err = c.handshake()
	stop()
	if err != nil {
		nc.Close()
		return nil, err
	}
	return c, nil
}

func (r *replica) put(c *wireConn) {
	r.mu.Lock()
	if r.closed || len(r.idle) >= maxIdleConns {
		r.mu.Unlock()
		c.nc.Close()
		return
	}
	r.idle = append(r.idle, c)
	r.mu.Unlock()
}

func (r *replica) close() {
	r.mu.Lock()
	r.closed = true
	idle := r.idle
	r.idle = nil
	r.mu.Unlock()
	for _, c := range idle {
		c.nc.Close()
	}
}

// tracedReq reports whether a request type carries the trailing trace ID
// (the per-query evaluation calls; stats and pings are untraced).
func tracedReq(t msgType) bool {
	return t == msgEval || t == msgFull
}

// call performs one request/response exchange with this replica. It
// returns exactly one of: the response payload of type want — read into a
// pooled buffer the caller releases (putFrame) — a decoded server-side error
// classification, or a call error. The trace ID is
// appended to eval and full requests — the shared base payload is
// copied, never mutated. Cancellation is enforced on the blocking socket
// I/O by poisoning the connection deadline when ctx fires; a context
// failure propagates as the context's error, not a replica failure.
func (r *replica) call(ctx context.Context, t msgType, payload []byte, want msgType, traceID uint64) ([]byte, *errMsg, error) {
	if faultinject.Enabled() {
		if err := faultinject.FireTag(faultinject.RemoteSend, r.addr); err != nil {
			r.noteFailure()
			return nil, nil, &RemoteError{Addr: r.addr, Kind: ErrKindTransport, Err: err}
		}
	}
	c, err := r.get(ctx)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, nil, cerr
		}
		r.noteFailure()
		return nil, nil, &RemoteError{Addr: r.addr, Kind: callErrKind(err), Err: err}
	}
	if tracedReq(t) {
		payload = appendTraceID(payload, traceID)
	}
	stop := context.AfterFunc(ctx, func() { c.nc.SetDeadline(time.Unix(1, 0)) })
	rt, resp, err := c.roundTrip(t, payload, getFrame())
	interrupted := !stop()
	if err != nil {
		c.nc.Close()
		if interrupted || ctx.Err() != nil {
			return nil, nil, ctx.Err()
		}
		r.noteFailure()
		return nil, nil, &RemoteError{Addr: r.addr, Kind: callErrKind(err), Err: err}
	}
	if interrupted {
		// The response won the race against cancellation; it is valid,
		// but the connection's deadline is poisoned — do not pool it.
		c.nc.Close()
	} else {
		r.put(c)
	}
	r.noteSuccess()
	if rt == msgError {
		em, derr := decodeErrMsg(resp)
		putFrame(resp)
		if derr != nil {
			return nil, nil, &RemoteError{Addr: r.addr, Kind: ErrKindProtocol, Err: derr}
		}
		return nil, &em, nil
	}
	if rt != want {
		putFrame(resp)
		return nil, nil, &RemoteError{Addr: r.addr, Kind: ErrKindProtocol,
			Msg: fmt.Sprintf("response type %d, want %d", rt, want)}
	}
	return resp, nil, nil
}

func callErrKind(err error) string {
	var pe *ProtocolError
	if errors.As(err, &pe) {
		return ErrKindProtocol
	}
	return ErrKindTransport
}
