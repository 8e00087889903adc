// Package asyncnet executes a protocol with each process running as its
// own goroutine, communicating only through channels — the paper's
// asynchronous system realized on real concurrency instead of the
// sequential simulator of package runtime.
//
// The nondeterministic message system is a controller goroutine that owns
// the buffer: it grants one step at a time to a process chosen by the
// scheduling policy, handing it a delivered message (or ∅) and collecting
// the messages it sends. Process goroutines never share memory; their
// states live entirely inside the goroutine and cross the channel only as
// results. A crash is the controller ceasing to grant steps — from every
// other process's point of view the victim is indistinguishable from slow,
// which is the observation the whole paper is built on.
//
// Determinism: with a deterministic policy (round-robin FIFO) an asyncnet
// execution reaches exactly the same decisions as the sequential runtime,
// goroutine interleaving notwithstanding, because the controller serializes
// steps. The value of this package is fidelity (true message-passing
// concurrency, real crash semantics) and load (many systems in parallel).
package asyncnet

import (
	"fmt"
	"slices"
	"sync"

	"github.com/flpsim/flp/internal/fifo"
	"github.com/flpsim/flp/internal/model"
)

// stepReq grants one step to a process: the delivered message, or nil for
// the null delivery.
type stepReq struct {
	msg *model.Message
}

// stepResp reports the step's visible effects: messages sent and the
// output register content. The state itself never leaves the goroutine.
type stepResp struct {
	sends  []model.Message
	output model.Output
	err    error
}

// procHandle is the controller's view of one process goroutine.
type procHandle struct {
	req   chan stepReq
	resp  chan stepResp
	alive bool // still granted steps (crash-stop flag, controller-side)
}

// Net is a running system of process goroutines plus the controlling
// message system.
type Net struct {
	pr      model.Protocol
	procs   []*procHandle
	tracker *fifo.Tracker
	outputs []model.Output
	steps   int
	stepsBy []int
	wg      sync.WaitGroup
}

// New launches one goroutine per process of pr, each in its state of the
// initial configuration on inputs. It refuses what model.Initial refuses,
// with the same errors. Call Close to terminate the goroutines.
func New(pr model.Protocol, inputs model.Inputs) (*Net, error) {
	c, err := model.Initial(pr, inputs)
	if err != nil {
		return nil, err
	}
	n := c.N()
	net := &Net{
		pr:      pr,
		procs:   make([]*procHandle, n),
		tracker: fifo.New(),
		outputs: make([]model.Output, n),
		stepsBy: make([]int, n),
	}
	for p := 0; p < n; p++ {
		h := &procHandle{
			req:   make(chan stepReq),
			resp:  make(chan stepResp),
			alive: true,
		}
		net.procs[p] = h
		net.wg.Add(1)
		go net.processLoop(model.PID(p), c.State(model.PID(p)), h)
	}
	return net, nil
}

// processLoop is the body of one process goroutine: it owns the state and
// applies the protocol's transition function per granted step.
func (net *Net) processLoop(p model.PID, state model.State, h *procHandle) {
	defer net.wg.Done()
	for req := range h.req {
		next, sends := net.pr.Step(p, state, req.msg)
		resp := stepResp{}
		switch {
		case next == nil:
			resp.err = fmt.Errorf("asyncnet: process %d: Step returned nil state", p)
		case state.Output().Decided() && next.Output() != state.Output():
			resp.err = fmt.Errorf("asyncnet: process %d: write-once output register violated", p)
		case slices.ContainsFunc(sends, func(m model.Message) bool { return m.To < 0 || int(m.To) >= net.pr.N() }):
			// As model.Apply rejects it; the send-order tracker indexes its
			// queues by destination.
			resp.err = fmt.Errorf("asyncnet: process %d: sent a message to a nonexistent process", p)
		default:
			state = next
			stamped := make([]model.Message, len(sends))
			for i, m := range sends {
				m.From = p
				stamped[i] = m
			}
			resp.sends = stamped
			resp.output = state.Output()
		}
		h.resp <- resp
	}
}

// Step grants one step to process p delivering msg (nil for ∅). The
// message must be pending for p. It synchronously waits for the step to
// complete — the controller is the serialization point.
func (net *Net) Step(p model.PID, msg *model.Message) error {
	if int(p) < 0 || int(p) >= len(net.procs) {
		return fmt.Errorf("asyncnet: no process %d", p)
	}
	h := net.procs[p]
	if !h.alive {
		return fmt.Errorf("asyncnet: process %d is crashed", p)
	}
	if msg != nil {
		if err := net.tracker.Deliver(*msg); err != nil {
			return err
		}
	}
	h.req <- stepReq{msg: msg}
	resp := <-h.resp
	if resp.err != nil {
		return resp.err
	}
	for _, m := range resp.sends {
		net.tracker.Send(m)
	}
	net.outputs[p] = resp.output
	net.steps++
	net.stepsBy[p]++
	return nil
}

// Crash marks p crashed: the controller will never grant it another step.
// Its goroutine keeps blocking on its request channel until Close — alive
// in every observable sense except that it is never scheduled, the paper's
// unannounced death.
func (net *Net) Crash(p model.PID) {
	if int(p) >= 0 && int(p) < len(net.procs) {
		net.procs[p].alive = false
	}
}

// Alive reports whether p may still be granted steps.
func (net *Net) Alive(p model.PID) bool {
	return int(p) >= 0 && int(p) < len(net.procs) && net.procs[p].alive
}

// Output returns the last observed output register content of p.
func (net *Net) Output(p model.PID) model.Output { return net.outputs[p] }

// Pending returns the messages pending for p in send order.
func (net *Net) Pending(p model.PID) []model.Message { return net.tracker.PendingList(p) }

// Oldest returns p's earliest pending message.
func (net *Net) Oldest(p model.PID) (model.Message, bool) { return net.tracker.Oldest(p) }

// Steps returns the total number of steps granted.
func (net *Net) Steps() int { return net.steps }

// StepsOf returns the number of steps granted to p.
func (net *Net) StepsOf(p model.PID) int { return net.stepsBy[p] }

// N returns the number of processes.
func (net *Net) N() int { return len(net.procs) }

// Close terminates every process goroutine and waits for them to exit.
// The Net must not be used afterwards.
func (net *Net) Close() {
	for _, h := range net.procs {
		close(h.req)
	}
	net.wg.Wait()
}
