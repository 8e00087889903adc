package distexplore

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"

	"github.com/flpsim/flp/internal/model"
)

// Wire-level frame compression. Large frontiers make expand responses and
// dedup batches the dominant bandwidth cost — thousands of canonical keys
// with heavily repeated structure, which DEFLATE shrinks well. Compression
// is negotiated, never assumed: the coordinator opens each connection with
// a hello frame listing the codecs it speaks, the worker answers with the
// one it accepts (or none), and only after that may either side set
// frameCompressedBit. A peer that answers the hello with frameErr gets
// plain frames. (Only the codec is negotiated; the payload format is
// versioned and checked at init, see wire.go.)

// codecFlate is the one codec currently offered: stdlib DEFLATE at
// BestSpeed (the frames are latency-sensitive; level 1 already removes
// most of the key redundancy).
const codecFlate = "flate"

// compressThreshold is the payload size below which frames are always sent
// raw: small frames gain nothing and would pay the flate header.
const compressThreshold = 4 << 10

func deflate(p []byte) ([]byte, error) {
	var buf bytes.Buffer
	zw, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		return nil, err
	}
	if _, err := zw.Write(p); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func inflate(p []byte) ([]byte, error) {
	zr := flate.NewReader(bytes.NewReader(p))
	defer zr.Close()
	// The +1 lets a too-large payload be detected rather than silently cut.
	raw, err := io.ReadAll(io.LimitReader(zr, maxFramePayload+1))
	if err != nil {
		return nil, err
	}
	if len(raw) > maxFramePayload {
		return nil, fmt.Errorf("inflated payload exceeds %d-byte limit", maxFramePayload)
	}
	return raw, nil
}

// encodeHello lists the codecs the coordinator offers.
func encodeHello(codecs []string) []byte {
	b := model.AppendUvarint(nil, uint64(len(codecs)))
	for _, c := range codecs {
		b = model.AppendString(b, c)
	}
	return b
}

func decodeHello(b []byte) ([]string, error) {
	count, n, err := model.ConsumeUvarint(b)
	if err != nil {
		return nil, fmt.Errorf("hello codec count: %w", err)
	}
	b = b[n:]
	codecs := make([]string, 0, count)
	for i := uint64(0); i < count; i++ {
		c, n, err := model.ConsumeString(b)
		if err != nil {
			return nil, fmt.Errorf("hello codec %d: %w", i, err)
		}
		codecs = append(codecs, c)
		b = b[n:]
	}
	return codecs, nil
}

// chooseCodec picks the codec a worker accepts from an offer: flate if
// offered, otherwise none. An empty answer means "plain frames only".
func chooseCodec(offered []string) string {
	for _, c := range offered {
		if c == codecFlate {
			return codecFlate
		}
	}
	return ""
}
