// The tcp mode: the same §2 item 3 round protocol the virtual substrates
// run, but over real OS processes — the parent binds one loopback
// listener per process, spawns one tcp-child per pid with its listener
// inherited as an extra file, kills one child mid-run and
// restarts it as a higher incarnation, and audits the collected
// decisions for validity and k-agreement. Only safety is checked:
// whatever the timing of the kill, survivors must degrade the dead
// peer into D(i,r) suspicions and decide, and the restarted child must
// re-enter and terminate instead of deadlocking.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/msgnet"
	"repro/internal/netsub"
	"repro/internal/task"
)

// netResult is the one JSON line each child prints before exiting.
type netResult struct {
	PID         int   `json:"pid"`
	Incarnation int   `json:"incarnation"`
	Decision    int   `json:"decision"`
	Rounds      int   `json:"rounds"`
	Stalls      int   `json:"stalls"`
	Reconnects  int64 `json:"reconnects"`
}

// netShape resolves the tcp and tcp-child parameters from the flags: the
// -watchdog flag is milliseconds here (steps on the virtual substrates).
func netShape(cfg config) (n, f, k, rounds, watchdogMS, lingerMS int) {
	n, f, k, rounds = cfg.n, cfg.f, cfg.k, cfg.rounds
	if rounds <= 0 {
		rounds = 3
	}
	watchdogMS = cfg.watchdog
	if watchdogMS <= 0 {
		watchdogMS = 1000
	}
	lingerMS = cfg.netLinger
	if lingerMS <= 0 {
		lingerMS = 250
	}
	return
}

// runNetChild is one mesh process: adopt the inherited listener (fd 3),
// join the mesh, flood the minimum pid for the configured rounds with
// the wall-clock watchdog degrading silence into suspicion, and print
// the decision as JSON.
func runNetChild(cfg config, w io.Writer) error {
	n, f, _, rounds, watchdogMS, lingerMS := netShape(cfg)
	addrs := strings.Split(cfg.netAddrs, ",")
	if len(addrs) != n {
		return fmt.Errorf("tcp-child: %d addrs for %d processes", len(addrs), n)
	}
	lf := os.NewFile(3, "mesh-listener")
	if lf == nil {
		return fmt.Errorf("tcp-child: no inherited listener on fd 3")
	}
	ln, err := net.FileListener(lf)
	lf.Close()
	if err != nil {
		return fmt.Errorf("tcp-child: adopt listener: %w", err)
	}

	node, err := netsub.Start(netsub.Config{
		Me: core.PID(cfg.netMe), N: n, Addrs: addrs,
		Incarnation: cfg.netIncarnation,
		Listener:    ln,
		Seed:        cfg.seed,
	})
	if err != nil {
		return fmt.Errorf("tcp-child: start node: %w", err)
	}
	defer node.Close()
	// The parent waits for this line before it starts killing anyone.
	fmt.Fprintln(w, "ready")

	min := cfg.netMe
	fold := func(view map[core.PID]core.Value) {
		for _, v := range view {
			if x, ok := v.(int); ok && x < min {
				min = x
			}
		}
	}
	rec, stalls, err := msgnet.RunSubstrateRounds(node, f, rounds, watchdogMS, lingerMS,
		func(_ core.PID, _ int, prev map[core.PID]core.Value, _ core.Set) core.Value {
			fold(prev)
			return min
		}, nil)
	if err != nil {
		return fmt.Errorf("tcp-child: rounds: %w", err)
	}
	for _, view := range rec.Views {
		fold(view)
	}
	line, err := json.Marshal(netResult{
		PID:         cfg.netMe,
		Incarnation: cfg.netIncarnation,
		Decision:    min,
		Rounds:      len(rec.Views),
		Stalls:      len(stalls),
		Reconnects:  node.Stats().Reconnects,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	return nil
}

// tailBuffer keeps the last max bytes written to it — enough of a dead
// child's stderr to diagnose the failure without unbounded memory. The
// exec machinery writes from its own goroutine while the parent may read
// on a timeout path, so access is locked.
type tailBuffer struct {
	mu      sync.Mutex
	max     int
	buf     []byte
	clipped bool
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > t.max {
		t.buf = t.buf[len(t.buf)-t.max:]
		t.clipped = true
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := strings.TrimSpace(string(t.buf))
	if t.clipped && s != "" {
		s = "…" + s
	}
	return s
}

// netChild tracks one spawned mesh process.
type netChild struct {
	cmd    *exec.Cmd
	stderr *tailBuffer
	ready  chan struct{}
	result chan netResult
	scnErr chan error
}

// failDetail renders the child's captured stderr for an audit error;
// empty when the child said nothing.
func (c *netChild) failDetail() string {
	s := c.stderr.String()
	if s == "" {
		return ""
	}
	return "; stderr tail:\n" + s
}

// spawnNetChild starts this binary again in tcp-child mode as mesh
// process pid, passing its pre-bound listener as fd 3 and the run shape
// as flags.
func spawnNetChild(cfg config, pid, incarnation int, ln *net.TCPListener, addrs []string) (*netChild, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate executable: %w", err)
	}
	n, f, _, rounds, watchdogMS, lingerMS := netShape(cfg)
	cmd := exec.Command(exe, "tcp-child",
		"-me", strconv.Itoa(pid),
		"-incarnation", strconv.Itoa(incarnation),
		"-addrs", strings.Join(addrs, ","),
		"-linger", strconv.Itoa(lingerMS),
		"-n", strconv.Itoa(n),
		"-f", strconv.Itoa(f),
		"-rounds", strconv.Itoa(rounds),
		"-watchdog", strconv.Itoa(watchdogMS),
		"-seed", strconv.FormatInt(cfg.seed, 10),
	)
	lf, err := ln.File()
	if err != nil {
		return nil, fmt.Errorf("dup listener for p%d: %w", pid, err)
	}
	defer lf.Close() // Start dups it again; the child owns that copy
	cmd.ExtraFiles = []*os.File{lf}
	// Tee the child's stderr: live on the parent's stderr for watching a
	// run, and a bounded tail the audit errors can quote post mortem.
	tail := &tailBuffer{max: 4096}
	cmd.Stderr = io.MultiWriter(os.Stderr, tail)
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawn p%d: %w", pid, err)
	}
	c := &netChild{
		cmd:    cmd,
		stderr: tail,
		ready:  make(chan struct{}),
		result: make(chan netResult, 1),
		scnErr: make(chan error, 1),
	}
	go func() {
		sc := bufio.NewScanner(out)
		readied := false
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			switch {
			case line == "ready":
				if !readied {
					readied = true
					close(c.ready)
				}
			case strings.HasPrefix(line, "{"):
				var res netResult
				if err := json.Unmarshal([]byte(line), &res); err == nil {
					c.result <- res
				}
			}
		}
		c.scnErr <- sc.Err()
	}()
	return c, nil
}

// runNetParent orchestrates the multi-process run: spawn the mesh, kill
// the highest-pid child once everyone is up, restart it as incarnation
// 2 on the same inherited listener, then audit the decisions.
func runNetParent(cfg config, w io.Writer) error {
	n, f, k, rounds, watchdogMS, _ := netShape(cfg)
	if n < 2 {
		return fmt.Errorf("tcp needs n >= 2, got %d", n)
	}
	if f < 1 || f >= n {
		return fmt.Errorf("tcp kills one process: need 1 <= f < n, got f=%d n=%d", f, n)
	}
	if k < 2 {
		// The restarted process may re-enter after the survivors are
		// gone and decide alone; k >= 2 makes that a legal outcome.
		return fmt.Errorf("tcp needs k >= 2 (a restarted process may decide alone), got %d", k)
	}
	deadline := time.Duration(2*rounds*watchdogMS+20000) * time.Millisecond

	lns := make([]*net.TCPListener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("bind p%d: %w", i, err)
		}
		defer ln.Close()
		lns[i] = ln.(*net.TCPListener)
		addrs[i] = ln.Addr().String()
	}
	fmt.Fprintf(w, "substrate=tcp n=%d f=%d k=%d rounds=%d watchdog=%dms\n", n, f, k, rounds, watchdogMS)

	children := make([]*netChild, n)
	for i := 0; i < n; i++ {
		c, err := spawnNetChild(cfg, i, 1, lns[i], addrs)
		if err != nil {
			killNetChildren(children)
			return err
		}
		children[i] = c
	}
	defer killNetChildren(children)

	for i, c := range children {
		select {
		case <-c.ready:
		case <-time.After(deadline):
			return fmt.Errorf("p%d never reported ready%s", i, c.failDetail())
		}
	}

	// Everyone is up and the mesh is forming: kill the victim. Whatever
	// round it dies in, the survivors' watchdogs degrade its silence
	// into D(i,r) suspicions; safety must hold regardless of timing.
	victim := n - 1
	if err := children[victim].cmd.Process.Kill(); err != nil {
		return fmt.Errorf("kill p%d: %w", victim, err)
	}
	children[victim].cmd.Wait()
	fmt.Fprintf(w, "killed p%d (incarnation 1)\n", victim)

	restarted, err := spawnNetChild(cfg, victim, 2, lns[victim], addrs)
	if err != nil {
		return fmt.Errorf("restart p%d: %w", victim, err)
	}
	children[victim] = restarted
	fmt.Fprintf(w, "restarted p%d (incarnation 2)\n", victim)

	results := make([]netResult, n)
	for i, c := range children {
		// Drain the child's stdout to EOF before reaping it: Wait closes
		// the pipe, so calling it first can race the result line away.
		select {
		case <-c.scnErr:
		case <-time.After(deadline):
			return fmt.Errorf("p%d did not terminate: the mesh deadlocked%s", i, c.failDetail())
		}
		done := make(chan error, 1)
		go func() { done <- c.cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				// A non-zero child exit is an audit failure in its own
				// right: quote the code and whatever the child said.
				return fmt.Errorf("p%d exited with code %d: %w%s",
					i, c.cmd.ProcessState.ExitCode(), err, c.failDetail())
			}
		case <-time.After(deadline):
			return fmt.Errorf("p%d did not terminate: the mesh deadlocked%s", i, c.failDetail())
		}
		select {
		case res := <-c.result:
			results[i] = res
		default:
			return fmt.Errorf("p%d exited with code %d without a result line%s",
				i, c.cmd.ProcessState.ExitCode(), c.failDetail())
		}
	}

	inputs := make(map[int]bool, n)
	for i := range results {
		inputs[i] = true // process i proposed i
	}
	vd := task.KSet(k, func(v int) bool { return inputs[v] }, n,
		func(i int) (int, bool) { return results[i].Decision, true }, nil)
	stalls, reconnects := 0, int64(0)
	for _, res := range results {
		fmt.Fprintf(w, "p%-3d → %-4d (incarnation %d, rounds %d, stalls %d)\n",
			res.PID, res.Decision, res.Incarnation, res.Rounds, res.Stalls)
		stalls += res.Stalls
		reconnects += res.Reconnects
	}
	if bad := vd.Invalid; len(bad) > 0 {
		return fmt.Errorf("validity violated: p%d decided %d, not any process's input", results[bad[0].Index].PID, bad[0].Value)
	}
	if results[victim].Incarnation != 2 {
		return fmt.Errorf("p%d's result came from incarnation %d, want the restart", victim, results[victim].Incarnation)
	}
	fmt.Fprintf(w, "stalls: %d, reconnects: %d\n", stalls, reconnects)
	if vd.Excess {
		return fmt.Errorf("k-agreement violated: %d distinct decisions > k=%d", len(vd.Distinct), k)
	}
	fmt.Fprintf(w, "agreement check: %d distinct decision(s) ≤ k=%d; restarted process re-entered and terminated\n", len(vd.Distinct), k)
	return nil
}

// killNetChildren reaps whatever is still running, for error paths.
func killNetChildren(children []*netChild) {
	for _, c := range children {
		if c != nil && c.cmd.ProcessState == nil {
			c.cmd.Process.Kill()
			c.cmd.Wait()
		}
	}
}
