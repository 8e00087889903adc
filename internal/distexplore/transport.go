package distexplore

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// Transport abstracts how cluster members reach each other, so the entire
// coordinator/worker protocol runs identically over real sockets and
// inside a single test process. Both implementations hand back net.Conn
// values (loopback uses net.Pipe), so deadlines, partial writes, and
// close-mid-RPC behave the same way in tests as in production.
type Transport interface {
	// Listen binds a worker endpoint. For TCP, addr is a host:port
	// ("127.0.0.1:0" picks a free port); for loopback, any unique name.
	Listen(addr string) (Listener, error)
	// Dial connects to a worker endpoint within the timeout.
	Dial(addr string, timeout time.Duration) (net.Conn, error)
}

// Listener accepts inbound coordinator connections.
type Listener interface {
	Accept() (net.Conn, error)
	Close() error
	// Addr returns the dialable address of the endpoint.
	Addr() string
}

// InProcessTransport marks transports whose connections never cross a
// machine boundary. Nothing in this package consults it any more; it and
// (*Loopback).InProcess survive only because the benchmark harness (bench/)
// still asserts them, and go when that harness stops.
type InProcessTransport interface {
	// InProcess reports whether connections stay inside one process.
	InProcess() bool
}

// TCP is the production transport: plain TCP sockets.
type TCP struct{}

type tcpListener struct{ net.Listener }

func (l tcpListener) Addr() string { return l.Listener.Addr().String() }

// Listen implements Transport.
func (TCP) Listen(addr string) (Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return tcpListener{l}, nil
}

// Dial implements Transport.
func (TCP) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, timeout)
}

// Loopback is the in-process transport: a registry of named endpoints
// whose connections are synchronous in-memory pipes. It lets a whole
// cluster — coordinator and every worker — run inside one `go test`
// process with no network, exercising the same framing, deadline, and
// retry code paths as TCP.
type Loopback struct {
	mu        sync.Mutex
	endpoints map[string]*loopListener
}

// NewLoopback returns an empty loopback network.
func NewLoopback() *Loopback {
	return &Loopback{endpoints: make(map[string]*loopListener)}
}

// InProcess implements InProcessTransport, which only bench/ still asks.
func (lb *Loopback) InProcess() bool { return true }

type loopListener struct {
	name   string
	lb     *Loopback
	accept chan net.Conn
	done   chan struct{}
	once   sync.Once
}

// Listen implements Transport.
func (lb *Loopback) Listen(addr string) (Listener, error) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	if _, ok := lb.endpoints[addr]; ok {
		return nil, fmt.Errorf("distexplore: loopback endpoint %q already bound", addr)
	}
	l := &loopListener{name: addr, lb: lb, accept: make(chan net.Conn), done: make(chan struct{})}
	lb.endpoints[addr] = l
	return l, nil
}

// Dial implements Transport.
func (lb *Loopback) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	lb.mu.Lock()
	l, ok := lb.endpoints[addr]
	lb.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("distexplore: loopback endpoint %q not listening", addr)
	}
	client, server := net.Pipe()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case l.accept <- server:
		return client, nil
	case <-l.done:
		return nil, fmt.Errorf("distexplore: loopback endpoint %q closed", addr)
	case <-t.C:
		return nil, fmt.Errorf("distexplore: loopback dial %q: timeout after %v", addr, timeout)
	}
}

// Accept implements Listener.
func (l *loopListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, fmt.Errorf("distexplore: loopback endpoint %q closed", l.name)
	}
}

// Close implements Listener. The endpoint name becomes available again.
func (l *loopListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.lb.mu.Lock()
		delete(l.lb.endpoints, l.name)
		l.lb.mu.Unlock()
	})
	return nil
}

// Addr implements Listener.
func (l *loopListener) Addr() string { return l.name }
