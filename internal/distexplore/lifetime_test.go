package distexplore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
)

// A worker's visited interner outlives the job and a connection's payload
// buffers outlive the request. The tests below hold the three things that
// makes unsafe if done wrong: a job must not see the last job's visited
// keys, a connection must not see another connection's bytes, and the job
// must not keep a reference into a request it has answered.

// TestJobsBackToBackOnOneCluster runs four jobs on one long-lived cluster —
// the third is the first again, so every key it dedups was interned by a
// job before it — and holds each to the sequential oracle. A visited set
// that was not emptied at init would call the third job's nodes seen and
// drop them.
func TestJobsBackToBackOnOneCluster(t *testing.T) {
	lb := NewLoopback()
	addrs, _ := startWorkers(t, lb, []string{"l0", "l1", "l2"})
	cl := dialCluster(t, lb, addrs, failoverOptions())
	for i, k := range []int{1, 3, 1, 0} {
		k := budgetKernels[k]
		task := Task{Protocol: k.name, N: k.n, Inputs: alternatingInputs(k.n), Shards: 6, Replicas: 2,
			Options: explore.Options{MaxConfigs: k.budget}}
		seqC, seqV, seq := seqStream(t, task)
		distC, distV, dist := distStream(t, cl, task)
		compareStreams(t, fmt.Sprintf("job %d on the long-lived cluster", i+1), seqC, seqV, seq, distC, distV, dist)
	}
}

// stallTransport loses one response in the middle: once armed, the next
// expand response of at least 64 bytes from addr is read halfway and then
// reported as a transport error, and the coordinator's Close of that
// connection is withheld — the worker's handler stays blocked writing the
// other half, as it would into a full socket, while the coordinator re-dials
// and the run goes on over a second connection to the same worker. finish
// reads the rest of the stalled response.
type stallTransport struct {
	Transport
	addr string

	mu      sync.Mutex
	armed   bool
	stalled *stallConn
	retried []byte // the next expand response from addr: the same request, answered again
}

func (st *stallTransport) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	c, err := st.Transport.Dial(addr, timeout)
	if err != nil || addr != st.addr {
		return c, err
	}
	return &stallConn{Conn: c, st: st}, nil
}

func (st *stallTransport) arm() {
	st.mu.Lock()
	st.armed = true
	st.mu.Unlock()
}

// stallConn follows the framer's reads: five header bytes, then the payload
// in one buffer.
type stallConn struct {
	net.Conn
	st      *stallTransport
	typ     byte
	payload bool // the next Read is a payload
	half    []byte
	rest    int
}

var errStalled = errors.New("injected: response lost mid-frame")

func (c *stallConn) Read(p []byte) (int, error) {
	if !c.payload {
		n, err := io.ReadFull(c.Conn, p)
		if err == nil && len(p) == 5 {
			c.typ, c.payload = p[4], p[0]|p[1]|p[2]|p[3] != 0
		}
		return n, err
	}
	c.payload = false
	if c.typ != frameExpandResp || len(p) < 64 {
		return io.ReadFull(c.Conn, p)
	}
	c.st.mu.Lock()
	stall := c.st.armed && c.st.stalled == nil
	if stall {
		c.st.stalled = c
	}
	record := !stall && c.st.stalled != nil && c.st.retried == nil
	c.st.mu.Unlock()
	if stall {
		c.half, c.rest = make([]byte, len(p)/2), len(p)-len(p)/2
		if _, err := io.ReadFull(c.Conn, c.half); err != nil {
			return 0, err
		}
		return 0, errStalled
	}
	n, err := io.ReadFull(c.Conn, p)
	if record {
		c.st.mu.Lock()
		c.st.retried = append([]byte{}, p[:n]...)
		c.st.mu.Unlock()
	}
	return n, err
}

func (c *stallConn) Close() error {
	c.st.mu.Lock()
	defer c.st.mu.Unlock()
	if c.st.stalled == c {
		return nil // withheld until finish
	}
	return c.Conn.Close()
}

// finish drains the stalled response and returns all of it.
func (st *stallTransport) finish() ([]byte, error) {
	st.mu.Lock()
	c := st.stalled
	st.mu.Unlock()
	if c == nil {
		return nil, errors.New("no response was stalled")
	}
	defer c.Conn.Close()
	rest := make([]byte, c.rest)
	if err := c.Conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(c.Conn, rest); err != nil {
		return nil, err
	}
	return append(c.half, rest...), nil
}

// TestDyingConnectionKeepsItsResponse is the reason the payload buffers are
// the connection's and not the worker's: while one connection's handler is
// still writing an expand response, the coordinator has re-dialed and the
// new connection's requests are being dispatched — expand responses among
// them — on the same worker. The response is lost in the cluster's second
// job, when the first has grown every buffer past anything the second
// sends, so a buffer shared between the connections would be overwritten in
// place. The stalled response, drained after the run, must be byte for byte
// what the worker answered when the same request was retried (expansion is
// pure).
func TestDyingConnectionKeepsItsResponse(t *testing.T) {
	k := budgetKernels[1]
	task := Task{Protocol: k.name, N: k.n, Inputs: alternatingInputs(k.n), Shards: 6, Replicas: 2,
		Options: explore.Options{MaxConfigs: k.budget}}
	seqC, seqV, seq := seqStream(t, task)
	st := &stallTransport{Transport: NewLoopback(), addr: "y1"}
	addrs, _ := startWorkers(t, st, []string{"y0", "y1", "y2"})
	cl := dialCluster(t, st, addrs, failoverOptions())
	distC, distV, dist := distStream(t, cl, task)
	compareStreams(t, "first job", seqC, seqV, seq, distC, distV, dist)
	st.arm()
	distC, distV, dist = distStream(t, cl, task)
	compareStreams(t, "second job, a response lost mid-frame", seqC, seqV, seq, distC, distV, dist)
	stalled, err := st.finish()
	if err != nil {
		t.Fatalf("draining the stalled response: %v", err)
	}
	if st.retried == nil {
		t.Fatal("the request was never retried on a second connection")
	}
	if !bytes.Equal(stalled, st.retried) {
		t.Errorf("the stalled connection delivered %d bytes that differ from the %d-byte answer to the retried request: its buffer was written while it was in flight",
			len(stalled), len(st.retried))
	}
}

// TestWorkerKeepsNothingOfTheRequest is what makes reusing a connection's
// request buffer sound: once dispatch has returned, nothing the job holds —
// visited keys, frontier configurations, the level cache, events — may point
// into the payload. Two workers are driven through the same requests; one
// has every payload overwritten with 0xFF the moment dispatch returns. Every
// answer must be the same, byte for byte, down to a dedup of keys interned
// from poisoned payloads (all seen) and the expansion of nodes adopted from
// one.
func TestWorkerKeepsNothingOfTheRequest(t *testing.T) {
	clean, poisoned := NewWorker(nil), NewWorker(nil)
	step := 0
	send := func(typ byte, payload []byte) []byte {
		t.Helper()
		step++
		_, want := clean.dispatch(typ, append([]byte(nil), payload...), new([]byte))
		mine := append([]byte(nil), payload...)
		rtyp, got := poisoned.dispatch(typ, mine, new([]byte))
		for i := range mine {
			mine[i] = 0xFF
		}
		if rtyp == frameErr {
			t.Fatalf("request %d (frame 0x%02x): %s", step, typ, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("request %d (frame 0x%02x): the worker whose earlier payloads were overwritten answers differently", step, typ)
		}
		return got
	}
	avoid := model.NullEvent(2)
	req := initReq{Protocol: "naivemajority", N: 3, Inputs: model.Inputs{0, 1, 1}, Avoid: &avoid,
		Prefix: model.Schedule{model.NullEvent(0)}, Shards: 1, WorkerCount: 1, Replicas: 1}
	send(frameInit, req.encode())
	pr, _ := RegistryProvider(req.Protocol, req.N)
	root := model.MustApplySchedule(pr, model.MustInitial(pr, req.Inputs), req.Prefix)
	send(frameAdopt, appendAdoptReq(nil, 0, nil, []adoptNode{{wireKey: identityOf(root)}}))

	next := uint64(1)
	parents := []uint64{0}
	for level := 0; level < 3; level++ {
		_, cands, err := decodeCandidates(send(frameExpand, (&expandReq{Level: level, Lo: int(parents[0]), Hi: int(next), Shards: []int{0}}).encode()))
		if err != nil || len(cands) == 0 {
			t.Fatalf("level %d: %d candidates, %v", level, len(cands), err)
		}
		group := []shardGroup{{Shard: 0}}
		for _, c := range cands {
			group[0].Keys = append(group[0].Keys, c.wireKey)
		}
		_, _, answer, err := decodeDedupResp(send(frameDedup, appendDedupReq(nil, level, int(parents[0]), group)))
		if err != nil || len(answer) != 1 || len(answer[0].Fresh) == 0 {
			t.Fatalf("level %d: dedup answered %+v, %v", level, answer, err)
		}
		// The same keys as another chunk: interned from a payload that has
		// since been overwritten, they must all be found.
		if _, _, again, _ := decodeDedupResp(send(frameDedup, appendDedupReq(nil, level, int(next), group))); len(again[0].Fresh) != 0 {
			t.Fatalf("level %d: %d keys interned from an overwritten payload are no longer found", level, len(again[0].Fresh))
		}
		var adopts []adoptNode
		parents = parents[:0]
		for _, i := range answer[0].Fresh {
			c := cands[i]
			adopts = append(adopts, adoptNode{Index: next, Depth: uint64(level + 1), wireKey: c.wireKey, Parent: c.Parent, Via: c.Via})
			parents = append(parents, next)
			next++
		}
		send(frameAdopt, appendAdoptReq(nil, level+1, nil, adopts))
	}
}
