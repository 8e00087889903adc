package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/flpsim/flp/internal/distexplore"
)

// Outside-only instruments: everything here observes the program through
// an interface it already exposes (its Transport seam, its /metrics page,
// the kernel's per-process accounting) and changes none of its code.

// counters is one /metrics scrape: series ("name{labels}") → value.
type counters map[string]float64

func (c counters) add(o counters) {
	for k, v := range o {
		c[k] += v
	}
}

// sum adds every series whose name (text before the label set) is name and
// whose label set contains each of the given `key="value"` fragments.
func (c counters) sum(name string, labels ...string) float64 {
	var total float64
series:
	for k, v := range c {
		base, rest, _ := strings.Cut(k, "{")
		if base != name {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				continue series
			}
		}
		total += v
	}
	return total
}

// parseMetrics reads the Prometheus text exposition format: comment lines
// skipped, every other line "series value".
func parseMetrics(text string) counters {
	out := counters{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// scrape fetches and parses a /metrics page.
func scrape(client *http.Client, url string) (counters, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := bufio.NewReader(resp.Body).WriteTo(&sb); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return parseMetrics(sb.String()), nil
}

// procIO is the kernel's write accounting for this process: write-family
// syscalls and the bytes they carried (/proc/self/io syscw and wchar).
// Zero values where /proc is not available.
type procIO struct{ syscalls, bytes float64 }

func readProcIO() procIO {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return procIO{}
	}
	var io procIO
	for _, line := range strings.Split(string(data), "\n") {
		key, val, ok := strings.Cut(line, ": ")
		if !ok {
			continue
		}
		v, _ := strconv.ParseFloat(val, 64)
		switch key {
		case "syscw":
			io.syscalls = v
		case "wchar":
			io.bytes = v
		}
	}
	return io
}

// usage is getrusage(RUSAGE_SELF): CPU time consumed and peak resident set.
type usage struct {
	cpu       time.Duration
	peakRSSMB float64
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return usage{cpu: tv(ru.Utime) + tv(ru.Stime), peakRSSMB: float64(ru.Maxrss) / 1024}
}

// countingTransport wraps a distexplore.Transport and counts, on the
// coordinator's side of every connection it dials, bytes and frames in each
// direction and the time spent blocked in Read — the coordinator waiting for
// a worker. Frames are counted by parsing the 5-byte length-prefixed
// headers out of the written stream, so a frame is one frame however many
// Write calls carry it.
type countingTransport struct {
	distexplore.Transport
	bytesOut, bytesIn atomic.Int64
	framesOut         atomic.Int64
	readWaitNS        atomic.Int64
	conns             atomic.Int64
}

// InProcess forwards the wrapped transport's locality, so wrapping Loopback
// does not switch frame compression on.
func (ct *countingTransport) InProcess() bool {
	ip, ok := ct.Transport.(distexplore.InProcessTransport)
	return ok && ip.InProcess()
}

func (ct *countingTransport) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	c, err := ct.Transport.Dial(addr, timeout)
	if err != nil {
		return nil, err
	}
	ct.conns.Add(1)
	return &countingConn{Conn: c, ct: ct}, nil
}

type countingConn struct {
	net.Conn
	ct *countingTransport
	// skip is how many payload bytes of the current outbound frame are
	// still to come; hdr collects the next frame header across writes.
	skip int
	hdr  []byte
}

func (c *countingConn) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Read(p)
	c.ct.readWaitNS.Add(int64(time.Since(start)))
	c.ct.bytesIn.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.ct.bytesOut.Add(int64(n))
	for b := p[:n]; len(b) > 0; {
		if c.skip > 0 {
			k := min(c.skip, len(b))
			c.skip -= k
			b = b[k:]
			continue
		}
		k := min(5-len(c.hdr), len(b))
		c.hdr = append(c.hdr, b[:k]...)
		b = b[k:]
		if len(c.hdr) == 5 {
			c.skip = int(c.hdr[0])<<24 | int(c.hdr[1])<<16 | int(c.hdr[2])<<8 | int(c.hdr[3])
			c.hdr = c.hdr[:0]
			c.ct.framesOut.Add(1)
		}
	}
	return n, err
}

// envStamp records where a run's numbers came from.
type envStamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	StateDir   string `json:"state_dir"`
	StateFS    string `json:"state_fs"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Workload   string `json:"workload"`
}

func stampEnv(workload string, seed int64, stateDir string) envStamp {
	return envStamp{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		StateDir: stateDir, StateFS: fsType(stateDir), Commit: commit(), Seed: seed, Workload: workload,
	}
}

func (e envStamp) String() string {
	return fmt.Sprintf("env: workload=%s seed=%d nproc=%d GOMAXPROCS=%d go=%s state_fs=%s state_dir=%s commit=%s",
		e.Workload, e.Seed, e.NProc, e.GOMAXPROCS, e.Go, e.StateFS, e.StateDir, e.Commit)
}

// commit is the VCS revision the binary was built from, when the build
// recorded one (a checkout that is not a repository records none).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
