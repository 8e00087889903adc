package distexplore

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
)

// payloadShapes is every payload decoder of the cluster protocol, each
// paired with its encoder: decode reports the re-encoded payload and the
// largest capacity of any slice it sized from a count on the wire.
var payloadShapes = []struct {
	name   string
	typ    byte
	decode func(b []byte) (again []byte, maxCap int, err error)
}{
	{"init", frameInit, func(b []byte) ([]byte, int, error) {
		q, err := decodeInitReq(b)
		if err != nil {
			return nil, 0, err
		}
		return q.encode(), max(cap(q.Inputs), cap(q.Prefix)), nil
	}},
	{"expand", frameExpand, func(b []byte) ([]byte, int, error) {
		q, err := decodeExpandReq(b)
		if err != nil {
			return nil, 0, err
		}
		return q.encode(), cap(q.Shards), nil
	}},
	{"expand response", frameExpandResp, func(b []byte) ([]byte, int, error) {
		level, cands, err := decodeCandidates(b)
		return appendCandidates(nil, level, cands), cap(cands), err
	}},
	{"dedup", frameDedup, func(b []byte) ([]byte, int, error) {
		level, lo, groups, err := decodeDedupReq(b)
		n := cap(groups)
		for _, g := range groups {
			n = max(n, cap(g.Keys))
		}
		return appendDedupReq(nil, level, lo, groups), n, err
	}},
	{"dedup response", frameDedupResp, func(b []byte) ([]byte, int, error) {
		level, lo, groups, err := decodeDedupResp(b)
		n := cap(groups)
		for _, g := range groups {
			n = max(n, cap(g.Fresh))
		}
		return encodeDedupResp(level, lo, groups), n, err
	}},
	{"adopt", frameAdopt, func(b []byte) ([]byte, int, error) {
		level, foreign, nodes, err := decodeAdoptReq(b)
		n := max(cap(foreign), cap(nodes))
		for _, fp := range foreign {
			n = max(n, cap(fp.Schedule))
		}
		return appendAdoptReq(nil, level, foreign, nodes), n, err
	}},
}

// hostileCounts are payloads whose element count promises far more than the
// bytes behind it. uvarint(3) uvarint(1<<62) is the reproducer: read as
// (level, count) it used to reach make([]T, 0, 1<<62) and kill the process
// with "makeslice: cap out of range".
var hostileCounts = [][]byte{
	hostile(3, 1<<62),          // (level, count); adopt: a hostile foreign-parent count
	hostile(3, 0, 1<<62),       // (level, lo, count); adopt: no foreign parent, a hostile node count
	hostile(3, 0, 9, 1<<62),    // (level, lo, hi, count)
	hostile(3, 0, 1, 0, 1<<62), // (level, lo, one group, shard, count)
	hostile(3, 1, 7, 1<<62),    // adopt: one foreign parent, node 7, with a hostile schedule length
	hostile(3, 1<<40),
}

func hostile(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = model.AppendUvarint(b, v)
	}
	return b
}

// TestWireHostileCounts drives every decoder with every hostile payload:
// each must answer with an error — not panic, not allocate.
func TestWireHostileCounts(t *testing.T) {
	for _, shape := range payloadShapes {
		for i, p := range hostileCounts {
			again, maxCap, err := shape.decode(p)
			if err == nil && !bytes.Equal(again, p) {
				t.Errorf("%s: hostile payload %d decoded to something else", shape.name, i)
			}
			if maxCap > len(p) {
				t.Errorf("%s: hostile payload %d sized a slice of %d from %d bytes", shape.name, i, maxCap, len(p))
			}
		}
		if _, _, err := shape.decode(hostileCounts[0]); err == nil {
			t.Errorf("%s: uvarint(3) uvarint(1<<62) decoded without error", shape.name)
		}
	}
}

// TestHostileFrameIsAnError follows the reproducer through a live cluster:
// a request whose count was corrupted on its way to a worker is answered
// with frameErr — the worker stays up — and the coordinator reports it as a
// WorkerError, the permanent kind that is neither retried nor failed over.
func TestHostileFrameIsAnError(t *testing.T) {
	for typ, bad := range map[byte][]byte{
		frameExpand: hostileCounts[2], frameDedup: hostileCounts[1], frameAdopt: hostileCounts[0],
	} {
		tap := &frameTap{Transport: NewLoopback()}
		armed := true
		tap.out = func(_ string, got byte, payload []byte) []byte {
			if got == typ && armed {
				armed = false
				return bad
			}
			return payload
		}
		addrs, _ := startWorkers(t, tap, []string{"h0", "h1"})
		cl := dialCluster(t, tap, addrs, failoverOptions())
		_, _, err := cl.Explore(Task{Protocol: "naivemajority", N: 3, Inputs: model.Inputs{0, 1, 1}}, nil)
		var we *WorkerError
		if !errors.As(err, &we) {
			t.Fatalf("frame 0x%02x: want a WorkerError, got %v", typ, err)
		}
		if !strings.Contains(we.Msg, "exceeds") {
			t.Errorf("frame 0x%02x: the error does not name the hostile count: %v", typ, we)
		}
		// The worker survived: the same cluster runs the next job.
		if _, _, err := cl.Explore(Task{Protocol: "waitall", N: 3, Inputs: model.Inputs{0, 1, 1}}, nil); err != nil {
			t.Errorf("frame 0x%02x: cluster unusable after the hostile frame: %v", typ, err)
		}
	}
}

// TestMixedVersionRefusedAtInit pins the one-wire-format rule from both
// sides: a worker refuses a coordinator that sends no version or another
// one, and a coordinator refuses a worker whose init acknowledgement carries
// none or another one — at init, naming both versions, before any payload
// of the new shapes could be mis-decoded.
func TestMixedVersionRefusedAtInit(t *testing.T) {
	req := initReq{Protocol: "naivemajority", N: 3, Inputs: model.Inputs{0, 1, 1}, Shards: 2, WorkerCount: 1, Replicas: 1}
	current := req.encode()
	versionless := current[:len(current)-1] // the version is the last uvarint, one byte
	// namesBoth reports whether a refusal names the peer's version (when it
	// sent one) and this side's.
	namesBoth := func(msg string, peer int) bool {
		return strings.Contains(msg, "wire version") && strings.Contains(msg, fmt.Sprintf("version %d", wireVersion)) &&
			(peer == 0 || strings.Contains(msg, fmt.Sprintf("wire version %d", peer)))
	}
	for peer, name := range []string{"no version", "version 1", "version 2"} {
		payload := versionless
		if peer > 0 {
			payload = append(append([]byte(nil), versionless...), byte(peer))
		}
		rtyp, msg := NewWorker(nil).dispatch(frameInit, payload, new([]byte))
		if rtyp != frameErr || !namesBoth(string(msg), peer) {
			t.Errorf("worker, coordinator with %s: answered 0x%02x %q, want a wire-version error naming both", name, rtyp, msg)
		}
	}
	if rtyp, ack := NewWorker(nil).dispatch(frameInit, current, new([]byte)); rtyp != frameOK || checkInitAck(ack) != nil {
		t.Errorf("worker refused its own version: 0x%02x %q", rtyp, ack)
	}

	// A stand-in for another release's worker: it acknowledges every
	// request the way that release would acknowledge init.
	for peer, name := range []string{"no version", "version 1", "version 2"} {
		var ack []byte
		if peer > 0 {
			ack = []byte{byte(peer)}
		}
		lb := NewLoopback()
		l, err := lb.Listen("old")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		go func() {
			for {
				conn, err := l.Accept()
				if err != nil {
					return
				}
				for f := (&framer{conn: conn}); ; {
					if _, _, err := f.read(time.Time{}, nil); err != nil {
						break
					}
					if f.write(time.Time{}, frameOK, ack) != nil {
						break
					}
				}
				conn.Close()
			}
		}()
		cl := dialCluster(t, lb, []string{"old"}, failoverOptions())
		_, _, err = cl.Explore(Task{Protocol: "naivemajority", N: 3, Inputs: model.Inputs{0, 1, 1}}, nil)
		var we *WorkerError
		if !errors.As(err, &we) || !namesBoth(we.Msg, peer) {
			t.Errorf("coordinator, worker with %s: want a wire-version WorkerError naming both, got %v", name, err)
		}
	}
}

// TestMixedVersionOldHandshake pins what a worker of this release does with
// the codec handshake frame (0x06) a previous release's coordinator sent on
// every fresh connection when started with the flag that asked for it: it
// answers frameErr, which that coordinator read as "old peer, plain frames",
// keeps the job it holds, and goes on serving the same connection — init
// included.
func TestMixedVersionOldHandshake(t *testing.T) {
	lb := NewLoopback()
	l, err := lb.Listen("m0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go NewWorker(nil).Serve(l)
	conn, err := lb.Dial("m0", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	f := &framer{conn: conn}
	rpc := func(typ byte, payload []byte) (byte, []byte) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		if err := f.write(deadline, typ, payload); err != nil {
			t.Fatal(err)
		}
		rtyp, resp, err := f.read(deadline, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rtyp, resp
	}

	req := initReq{Protocol: "naivemajority", N: 3, Inputs: model.Inputs{0, 1, 1}, Shards: 1, WorkerCount: 1, Replicas: 1}
	if rtyp, ack := rpc(frameInit, req.encode()); rtyp != frameOK || checkInitAck(ack) != nil {
		t.Fatalf("init: 0x%02x %q", rtyp, ack)
	}
	pr, _ := RegistryProvider(req.Protocol, req.N)
	root := model.MustInitial(pr, req.Inputs)
	if rtyp, msg := rpc(frameAdopt, appendAdoptReq(nil, 0, nil, []adoptNode{{wireKey: identityOf(root)}})); rtyp != frameOK {
		t.Fatalf("adopt: 0x%02x %q", rtyp, msg)
	}
	expand := (&expandReq{Level: 0, Lo: 0, Hi: 1, Shards: []int{0}}).encode()
	_, before := rpc(frameExpand, expand)

	// The old offer: a count of one codec, then its name.
	if rtyp, msg := rpc(0x06, model.AppendString(model.AppendUvarint(nil, 1), "flate")); rtyp != frameErr {
		t.Fatalf("frame 0x06 answered 0x%02x %q, want frameErr", rtyp, msg)
	}
	if rtyp, after := rpc(frameExpand, expand); rtyp != frameExpandResp || !bytes.Equal(after, before) {
		t.Fatalf("after frame 0x06 the job expands differently: 0x%02x, %d bytes, want %d", rtyp, len(after), len(before))
	}
	if rtyp, ack := rpc(frameInit, req.encode()); rtyp != frameOK || checkInitAck(ack) != nil {
		t.Fatalf("init after frame 0x06: 0x%02x %q", rtyp, ack)
	}
}

// TestWireRoundTrip runs one real exploration under a tap and checks that
// every payload that crossed the wire decodes and re-encodes to itself.
func TestWireRoundTrip(t *testing.T) {
	frames := realFrames(t)
	for _, shape := range payloadShapes {
		if len(frames[shape.typ]) == 0 {
			t.Errorf("%s: no frame of type 0x%02x crossed the wire", shape.name, shape.typ)
		}
		for _, p := range frames[shape.typ] {
			again, _, err := shape.decode(p)
			if err != nil {
				t.Fatalf("%s: real payload does not decode: %v", shape.name, err)
			}
			if !bytes.Equal(again, p) {
				t.Fatalf("%s: real payload re-encodes differently", shape.name)
			}
		}
	}
}

// realFrames collects, by frame type, the payloads of one small budgeted
// run with an avoid filter and a prefix (so init carries both).
func realFrames(t testing.TB) map[byte][][]byte {
	frames := make(map[byte][][]byte)
	tap := &frameTap{Transport: NewLoopback()}
	tap.out = func(_ string, typ byte, p []byte) []byte {
		frames[typ] = append(frames[typ], append([]byte(nil), p...))
		return p
	}
	tap.in = func(_ string, typ byte, p []byte) { frames[typ] = append(frames[typ], append([]byte(nil), p...)) }
	var addrs []string
	for _, a := range []string{"f0", "f1", "f2"} {
		l, err := tap.Listen(a)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go NewWorker(nil).Serve(l)
		addrs = append(addrs, l.Addr())
	}
	cl, err := Dial(tap, addrs, failoverOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	avoid := model.NullEvent(2)
	task := Task{Protocol: "naivemajority", N: 3, Inputs: model.Inputs{0, 1, 1}, Shards: 6, Replicas: 2,
		Prefix: model.Schedule{model.NullEvent(0)}, Avoid: &avoid, Options: explore.Options{MaxConfigs: 60}}
	if _, _, err := cl.Explore(task, nil); err != nil {
		t.Fatal(err)
	}
	return frames
}

// FuzzWirePayloads holds every payload decoder to one invariant on
// arbitrary bytes: it returns an error, or what it decoded re-encodes to
// exactly the bytes it was given; it never panics and never sizes a slice
// past the payload's own length. Seeds: the frames of a real run, one shape
// at a time, and the hostile counts.
func FuzzWirePayloads(f *testing.F) {
	frames := realFrames(f)
	for i, shape := range payloadShapes {
		for _, p := range frames[shape.typ] {
			f.Add(uint8(i), p)
		}
		for _, p := range hostileCounts {
			f.Add(uint8(i), p)
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, payload []byte) {
		shape := payloadShapes[int(which)%len(payloadShapes)]
		again, maxCap, err := shape.decode(payload)
		if maxCap > len(payload) {
			t.Fatalf("%s: a slice of capacity %d was sized from a %d-byte payload", shape.name, maxCap, len(payload))
		}
		if err == nil && !bytes.Equal(again, payload) {
			t.Fatalf("%s: payload decoded without error but re-encodes differently\n in: %x\nout: %x", shape.name, payload, again)
		}
	})
}
