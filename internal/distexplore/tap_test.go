package distexplore

import (
	"encoding/binary"
	"net"
	"sync"
	"time"
)

// frameTap wraps a Transport and shows a test every frame on the
// coordinator's side of the connections it dials: out sees (and may
// replace the payload of) each request before it is sent to the worker at
// addr, in sees each of that worker's responses. Both run under one mutex, so the callbacks may keep plain
// counters although the coordinator fans requests out concurrently. Frames
// are reassembled from the byte streams, so a frame is one frame however
// many Write or Read calls carry it.
type frameTap struct {
	Transport
	mu  sync.Mutex
	out func(addr string, typ byte, payload []byte) []byte
	in  func(addr string, typ byte, payload []byte)
}

func (ft *frameTap) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	c, err := ft.Transport.Dial(addr, timeout)
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: c, tap: ft, addr: addr}, nil
}

type tapConn struct {
	net.Conn
	tap        *frameTap
	addr       string
	wbuf, rbuf []byte
}

// nextFrame splits one complete frame off the front of buf.
func nextFrame(buf []byte) (typ byte, payload, rest []byte, ok bool) {
	if len(buf) < 5 {
		return 0, nil, buf, false
	}
	n := int(binary.BigEndian.Uint32(buf))
	if len(buf) < 5+n {
		return 0, nil, buf, false
	}
	return buf[4], buf[5 : 5+n], buf[5+n:], true
}

// Write holds bytes back until a request frame is complete, then sends it
// (with the payload out returned) in one piece.
func (c *tapConn) Write(p []byte) (int, error) {
	c.wbuf = append(c.wbuf, p...)
	for {
		typ, payload, rest, ok := nextFrame(c.wbuf)
		if !ok {
			return len(p), nil
		}
		c.tap.mu.Lock()
		if c.tap.out != nil {
			payload = c.tap.out(c.addr, typ, payload)
		}
		c.tap.mu.Unlock()
		frame := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
		frame = append(append(frame, typ), payload...)
		c.wbuf = append([]byte(nil), rest...)
		if _, err := c.Conn.Write(frame); err != nil {
			return 0, err
		}
	}
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.rbuf = append(c.rbuf, p[:n]...)
	for {
		typ, payload, rest, ok := nextFrame(c.rbuf)
		if !ok {
			return n, err
		}
		c.tap.mu.Lock()
		if c.tap.in != nil {
			c.tap.in(c.addr, typ, payload)
		}
		c.tap.mu.Unlock()
		c.rbuf = append([]byte(nil), rest...)
	}
}
