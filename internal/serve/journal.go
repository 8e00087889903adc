package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Durable job journal. With Options.AtlasDir set, every admitted job is
// recorded in an append-only NDJSON journal (jobs.journal under the atlas
// root) so the queue survives a server crash: on restart, terminal jobs are
// replayed as history — GET /v1/jobs/{id} and the event streams keep
// answering for them — and non-terminal jobs are re-admitted under their
// original IDs and re-run. Re-running is sound for the same reason the
// serving layer is byte-identical to the CLIs: job bodies are pure engine
// queries, and the shared atlas/checkpoint store under the same root makes
// the re-run cheap (artifacts persisted before the crash are loaded, not
// rebuilt).
//
// The journal is flpserve's checkpoint mechanism, and its operations are
// exported with the same outcome vocabulary as the coordinator's checkpoint
// store: write (record appended), resume (job re-admitted), corrupt
// (damaged region detected, logged, truncated), skip (terminal job replayed
// as history, not re-run).
//
// Record types, one JSON object per line:
//
//	accepted  {id, kind, req, time}      — written at admission, fsynced
//	started   {id, time}                 — a pool worker picked the job up
//	event     {id, seq, msg, time}       — one progress event
//	terminal  {id, state, error?, result?, time} — final state, fsynced
//	terminal  {id, kind, msg, state, result, time} — a valency answered from
//	          memory at admission, never queued: its whole history (the one
//	          progress event in msg, then done) in one record, not fsynced
//	reserve   {seq, time}                — job IDs numbered up to seq may be
//	          issued to such answers; fsynced before the first of them
//
// A crash can leave a partial final line; replay truncates the file at the
// first unparseable byte and continues with what was durable. Records for
// unknown job IDs (their accepted line fell in the truncated region) are
// dropped with a log line, except a terminal record carrying its kind,
// which needs no accepted line. A crash can lose such a record, so a
// restarted server numbers its jobs past every reserve record too: an ID
// whose record was lost answers 404 and is never issued again.

// Journal record type tags.
const (
	recAccepted = "accepted"
	recStarted  = "started"
	recEvent    = "event"
	recTerminal = "terminal"
	recReserve  = "reserve"
)

// journalRecord is the one-line wire form of every record type; unused
// fields stay empty.
type journalRecord struct {
	Rec    string          `json:"rec"`
	ID     string          `json:"id"`
	Kind   JobKind         `json:"kind,omitempty"`
	Req    json.RawMessage `json:"req,omitempty"`
	Seq    int             `json:"seq,omitempty"`
	Msg    string          `json:"msg,omitempty"`
	State  JobState        `json:"state,omitempty"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	Time   time.Time       `json:"time"`
}

// journalStats is the scrape-time view of the journal's operation counters.
type journalStats struct {
	Writes, Resumes, Corrupt, Skips int64
}

// journal is the append side plus the counters. Replay happens once, in
// openJournal; after that the journal only appends.
type journal struct {
	path string
	logf func(format string, args ...any)

	mu sync.Mutex
	f  *os.File

	// reserved is the highest job ID number a replayed reserve record
	// covers.
	reserved int64

	writes, resumes, corrupt, skips atomic.Int64
	recCounts                       map[string]*atomic.Int64 // by record type
}

// replayedJob is one job reconstructed from the journal, in accept order.
type replayedJob struct {
	id     string
	kind   JobKind
	req    json.RawMessage
	state  JobState // StateQueued / StateRunning, or a terminal state
	errMsg string
	result json.RawMessage
	events []Event
	seq    int // max event seq seen, for continuation

	created, started, finished time.Time
}

// openJournal opens (creating if absent) the journal at path, replays every
// durable record, truncates any trailing damage, and returns the journal in
// append mode together with the replayed jobs in accept order.
func openJournal(path string, logf func(string, ...any)) (*journal, []*replayedJob, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	j := &journal{
		path: path,
		logf: logf,
		recCounts: map[string]*atomic.Int64{
			recAccepted: {}, recStarted: {}, recEvent: {}, recTerminal: {}, recReserve: {},
		},
	}

	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("serve: reading job journal: %w", err)
	}
	jobs, valid := j.replay(data)
	if valid < len(data) {
		j.corrupt.Add(1)
		j.logf("serve: job journal %s: %d trailing bytes unparseable (crash mid-append); truncating to last durable record",
			path, len(data)-valid)
		if err := os.Truncate(path, int64(valid)); err != nil {
			return nil, nil, fmt.Errorf("serve: truncating damaged job journal: %w", err)
		}
	}

	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: opening job journal: %w", err)
	}
	j.f = f
	return j, jobs, nil
}

// replay folds the journal bytes into per-job reconstructions and returns
// them in accept order plus the offset of the first unparseable byte (==
// len(data) when the whole file is clean).
func (j *journal) replay(data []byte) ([]*replayedJob, int) {
	byID := make(map[string]*replayedJob)
	var order []*replayedJob
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // partial final line: crash mid-append
		}
		var rec journalRecord
		if err := json.Unmarshal(data[off:off+nl], &rec); err != nil {
			break
		}
		off += nl + 1
		if rec.Rec == recReserve {
			j.reserved = max(j.reserved, int64(rec.Seq))
			continue
		}
		rj := byID[rec.ID]
		switch {
		case rj == nil:
			if rj = replayedFrom(rec); rj == nil {
				j.logf("serve: job journal: dropping %s record for unknown job %q", rec.Rec, rec.ID)
				continue
			}
			byID[rec.ID] = rj
			order = append(order, rj)
		case rec.Rec == recAccepted:
			j.logf("serve: job journal: duplicate accepted record for job %q ignored", rec.ID)
		case !rj.apply(rec):
			j.logf("serve: job journal: unknown record type %q for job %q ignored", rec.Rec, rec.ID)
		}
	}
	return order, off
}

// replayedFrom starts a job's reconstruction from the first record
// journaled for it: its accepted record, or, for a job answered from
// memory at admission, the terminal record carrying its kind that is its
// whole history — the one progress event in msg, then the terminal state.
// Any other first record belongs to a job whose accepted line was lost,
// and yields nil.
func replayedFrom(rec journalRecord) *replayedJob {
	switch {
	case rec.Rec == recAccepted:
		return &replayedJob{id: rec.ID, kind: rec.Kind, req: rec.Req,
			state: StateQueued, created: rec.Time}
	case rec.Rec == recTerminal && rec.Kind != "":
		rj := &replayedJob{id: rec.ID, kind: rec.Kind, created: rec.Time, started: rec.Time}
		rj.apply(journalRecord{Rec: recEvent, Msg: rec.Msg, Time: rec.Time})
		rj.apply(rec)
		return rj
	}
	return nil
}

// apply folds one started, event or terminal record into the job, and
// reports false for any other record type.
func (rj *replayedJob) apply(rec journalRecord) bool {
	switch rec.Rec {
	case recStarted:
		rj.state = StateRunning
		rj.started = rec.Time
	case recEvent:
		rj.events = append(rj.events, Event{Seq: rec.Seq, Time: rec.Time, Msg: rec.Msg})
		if rec.Seq >= rj.seq {
			rj.seq = rec.Seq + 1
		}
	case recTerminal:
		rj.state = rec.State
		rj.errMsg = rec.Error
		rj.result = rec.Result
		rj.finished = rec.Time
		// finish() appends the terminal marker event in memory rather
		// than through publish, so reconstruct it here the same way.
		rj.events = append(rj.events, Event{Seq: rj.seq, Time: rec.Time, Msg: "job " + string(rec.State)})
		rj.seq++
	default:
		return false
	}
	return true
}

// append writes one record, stamped with the current time unless the
// caller already stamped it, and fsyncs it when sync is set. Callers sync
// the durability points clients observe: a queued job's admission (a 202
// means the job survives a crash) and its terminal record (a result once
// readable stays readable). Progress records are best-effort appends:
// losing a tail of them costs replayed events, never correctness, since a
// re-admitted job re-runs anyway. So is the one record of a job answered
// from memory at admission: losing it costs the ID, never a wrong answer.
func (j *journal) append(rec journalRecord, sync bool) {
	if rec.Time.IsZero() {
		rec.Time = time.Now()
	}
	line, err := json.Marshal(rec)
	if err != nil {
		j.logf("serve: job journal: encoding %s record for job %s: %v", rec.Rec, rec.ID, err)
		return
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(line); err != nil {
		j.logf("serve: job journal: appending %s record for job %s: %v (continuing without it)", rec.Rec, rec.ID, err)
		return
	}
	if sync {
		if err := j.f.Sync(); err != nil {
			j.logf("serve: job journal: fsync after %s record for job %s: %v", rec.Rec, rec.ID, err)
		}
	}
	j.writes.Add(1)
	if c := j.recCounts[rec.Rec]; c != nil {
		c.Add(1)
	}
}

// noteResume / noteSkip / noteCorrupt record recovery outcomes decided by
// the server (which owns job reconstruction), not the journal itself.
func (j *journal) noteResume()  { j.resumes.Add(1) }
func (j *journal) noteSkip()    { j.skips.Add(1) }
func (j *journal) noteCorrupt() { j.corrupt.Add(1) }

// stats snapshots the operation counters for /metrics.
func (j *journal) stats() journalStats {
	return journalStats{
		Writes:  j.writes.Load(),
		Resumes: j.resumes.Load(),
		Corrupt: j.corrupt.Load(),
		Skips:   j.skips.Load(),
	}
}

// recordsTotal returns the lifetime append count for one record type.
func (j *journal) recordsTotal(rec string) int64 {
	if c := j.recCounts[rec]; c != nil {
		return c.Load()
	}
	return 0
}
