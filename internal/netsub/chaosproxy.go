package netsub

import (
	"bufio"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faultnet"
)

// ChaosListener is the socket-level chaos shim: a net.Listener proxy
// that interposes a frame-aware pump on every accepted connection and
// applies a faultnet.Plan to the data frames crossing it — drop,
// duplicate, delay, send-omission and partition, plus connection resets
// — against REAL connections. The same Plan data that drives the virtual
// substrate's injector drives the proxy, so a verdict found on sockets
// can be cross-validated against faultnet on the identical plan.
//
// Determinism: each connection gets its own injector compiled from the
// plan, and the injector's step input is the per-link data-frame index,
// so for a fixed plan the fate of the k-th frame from p to q is the same
// on every run regardless of scheduling. (Partition windows are indexed
// by frame count, not wall time; a window with Until 0 — never heals —
// is therefore exactly reproducible, which is what the deterministic
// cross-validation scenario uses.) Control frames (hello, heartbeats,
// and the acks the owner's peers send back on their own connections)
// always pass through: the shim attacks the protocol's messages, not the
// pool's plumbing.
type ChaosListener struct {
	net.Listener

	// plan is the fault model; owner the pid of the node behind this
	// listener (the "to" side of every decision).
	plan  faultnet.Plan
	owner core.PID

	// resetEvery, when positive, tears the underlying connection down
	// after every resetEvery-th data frame — the "resets" fault the
	// virtual substrate cannot express. The dialer's pool redials with
	// backoff and the stream resumes. Only this package's tests set it.
	resetEvery int
}

// delayStep is the wall time of one faultnet delay step.
const delayStep = 2 * time.Millisecond

// WrapListener interposes the chaos shim on ln, which fronts the node
// owner. Connections accepted through the returned listener have plan
// applied to their inbound data frames.
func WrapListener(ln net.Listener, plan faultnet.Plan, owner core.PID) *ChaosListener {
	return &ChaosListener{Listener: ln, plan: plan, owner: owner}
}

// Accept accepts a real connection and splices the chaos pump between it
// and the node.
func (cl *ChaosListener) Accept() (net.Conn, error) {
	real, err := cl.Listener.Accept()
	if err != nil {
		return nil, err
	}
	inner, outer := net.Pipe()
	p := &pump{cl: cl, real: real, inner: inner}
	go p.forward()
	go p.backward()
	return outer, nil
}

// pump carries one connection: forward parses and perturbs sender→owner
// frames; backward, as the owner writes nothing back, only carries the
// owner's close to the sender.
type pump struct {
	cl    *ChaosListener
	real  net.Conn // the sender's side
	inner net.Conn // the node's side (pipe peer of what Accept returned)

	// wmu serializes frame writes to inner so a delayed copy fired from
	// a timer can never interleave inside another frame.
	wmu sync.Mutex
	// timers tracks in-flight delayed deliveries for teardown.
	timers sync.WaitGroup
}

// forward is the perturbed direction. The injector and frame index are
// per connection: a redialed connection restarts its sequence, which
// keeps every decision a pure function of the plan and the frame index.
func (p *pump) forward() {
	defer func() {
		p.timers.Wait()
		p.inner.Close()
		p.real.Close()
	}()
	br := bufio.NewReaderSize(p.real, 32<<10)
	var scratch []byte
	inj := p.cl.plan.Injector()
	from, step, sinceReset := core.PID(-1), 0, 0
	for {
		f, err := ReadFrame(br, &scratch)
		if err != nil {
			return
		}
		// Re-encode from the parsed frame: the scratch buffer is reused
		// by the next read, and delayed copies outlive this iteration.
		buf, err := AppendFrame(nil, f.Kind, append([]byte(nil), f.Payload...))
		if err != nil {
			return
		}
		if f.Kind == FrameHello {
			if h, err := decodeHello(f.Payload); err == nil {
				from = h.pid
			}
			if !p.write(buf) {
				return
			}
			continue
		}
		if f.Kind != FrameData || from < 0 {
			if !p.write(buf) {
				return
			}
			continue
		}
		act := inj.OnSend(step, from, p.cl.owner)
		step++
		if len(act.Deliveries) == 0 {
			continue // dropped: not a frame the reset count sees
		}
		for _, d := range act.Deliveries {
			if d <= 0 {
				if !p.write(buf) {
					return
				}
				continue
			}
			p.timers.Add(1)
			delayed := buf
			time.AfterFunc(time.Duration(d)*delayStep, func() {
				defer p.timers.Done()
				p.write(delayed)
			})
		}
		if re := p.cl.resetEvery; re > 0 {
			if sinceReset++; sinceReset >= re {
				return
			}
		}
	}
}

// backward waits for the node to close its side, then closes the
// sender's.
func (p *pump) backward() {
	io.Copy(io.Discard, p.inner)
	p.real.Close()
	p.inner.Close()
}

// write delivers one whole frame to the node side, serialized against
// delayed copies. net.Pipe writes block until read, so a write deadline
// bounds a stuck node; false means the splice is dead.
func (p *pump) write(buf []byte) bool {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	p.inner.SetWriteDeadline(time.Now().Add(5 * time.Second))
	_, err := p.inner.Write(buf)
	return err == nil
}

// WrapAll wraps n freshly bound loopback listeners with the shim, one
// per process, ready for RoundsConfig's listeners hook.
func WrapAll(n int, plan faultnet.Plan) ([]net.Listener, error) {
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = WrapListener(ln, plan, core.PID(i))
	}
	return lns, nil
}
