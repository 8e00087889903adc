package distexplore

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"
)

// The cluster speaks a length-prefixed binary protocol: every message is
// one frame of
//
//	uint32 big-endian payload length | 1 byte type | payload
//
// over a persistent connection, strictly request/response (the coordinator
// sends one request per worker at a time and waits for the reply). Payload
// encodings live in wire.go and reuse the model's canonical wire formats.

// Frame types. Requests flow coordinator→worker, responses worker→
// coordinator.
const (
	frameInit     byte = 0x01 // start an exploration job on the worker
	frameExpand   byte = 0x02 // expand the worker's owned frontier at one level
	frameDedup    byte = 0x03 // dedup candidates against the worker's visited shards
	frameAdopt    byte = 0x04 // adopt admitted nodes into the worker's frontier
	frameShutdown byte = 0x05 // end the job, releasing worker state

	frameOK         byte = 0x81 // empty acknowledgement
	frameErr        byte = 0x82 // worker-side failure; payload is the message
	frameExpandResp byte = 0x83
	frameDedupResp  byte = 0x84

	// Reserved: 0x06/0x85 and flag bit 0x40 were a codec handshake removed in PR 25; older peers still send 0x06.
)

// maxFramePayload guards against corrupt length prefixes allocating
// unbounded memory.
const maxFramePayload = 1 << 28 // 256 MiB

// framer reads and writes frames on one connection. It holds the two
// header scratch arrays, so a frame costs no allocation beyond its payload
// (and not that when the reader lends a buffer). Requests and responses
// alternate on a connection, so one goroutine at a time reads and one writes.
type framer struct {
	conn       net.Conn
	rhdr, whdr [5]byte
}

// write sends one frame, honouring the deadline (zero means none).
func (f *framer) write(deadline time.Time, typ byte, payload []byte) error {
	if err := f.conn.SetWriteDeadline(deadline); err != nil {
		return err
	}
	binary.BigEndian.PutUint32(f.whdr[:], uint32(len(payload)))
	f.whdr[4] = typ
	if _, err := f.conn.Write(f.whdr[:]); err != nil {
		return err
	}
	if len(payload) == 0 {
		return nil
	}
	_, err := f.conn.Write(payload)
	return err
}

// read receives one frame, honouring the deadline (zero means none). The
// payload is read into buf's storage when that is large enough and into a
// fresh slice otherwise; a caller that is done with each payload before it
// reads the next passes the last one back, and one that keeps what it
// decoded (decoded keys alias the payload) passes nil.
func (f *framer) read(deadline time.Time, buf []byte) (byte, []byte, error) {
	if err := f.conn.SetReadDeadline(deadline); err != nil {
		return 0, nil, err
	}
	if _, err := io.ReadFull(f.conn, f.rhdr[:]); err != nil {
		return 0, nil, err
	}
	n, typ := binary.BigEndian.Uint32(f.rhdr[:]), f.rhdr[4]
	if n > maxFramePayload {
		return 0, nil, fmt.Errorf("distexplore: frame payload %d exceeds limit", n)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(f.conn, payload); err != nil {
		return 0, nil, err
	}
	return typ, payload, nil
}
