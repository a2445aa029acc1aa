// Cluster is the in-process loopback deployment helper: it pre-binds
// every mesh and client listener (so all addresses are known before any
// server starts), starts n servers over per-node WAL directories, and
// can restart a killed member on its original addresses and journal —
// the shape the chaos campaign, the load generator's -local mode, and
// the benchmarks all share.
package serve

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/netsub"
	"repro/internal/obs"
	"repro/internal/obs/hist"
	"repro/internal/wal"
)

// ClusterConfig shapes an in-process loopback cluster.
type ClusterConfig struct {
	// N and F shape the mesh; K is carried for callers' audits (the
	// service itself enforces the n−f quorum rule, which bounds
	// decisions at f+1 distinct values).
	N, F, K int

	// Dir is the root under which each node's WAL lives (Dir/n0, Dir/n1,
	// …). Required.
	Dir string

	// Sync is each node's journal fsync policy.
	Sync wal.SyncMode

	// Shards is ignored: a node runs one event loop. The field stays only
	// because bench/svc.go and bench/ladder.go set it, and goes with the
	// next change to bench/.
	Shards int

	// MaxInflight, RequestTimeout and InstanceTTL forward to each
	// node's Config.
	MaxInflight    int
	RequestTimeout time.Duration
	InstanceTTL    time.Duration

	// Mesh tunes the shared netsub transport template.
	Mesh netsub.Config

	// Seed derives per-node seeds (Seed + pid).
	Seed int64

	// Observer and Hist are shared by every node.
	Observer obs.Observer
	Hist     *hist.Registry

	// Tune, when non-nil, edits node i's Config before Start — how the
	// chaos campaign plants CrashAfterAcks and AckBeforeJournalBug on
	// its victim.
	Tune func(i int, cfg *Config)
}

// Cluster is a running in-process deployment.
type Cluster struct {
	cfg         ClusterConfig
	Servers     []*Server
	meshAddrs   []string
	clientAddrs []string
}

// StartCluster binds 2n loopback listeners, then starts every server, and
// returns once every node's mesh hears every peer: a fresh instance asks
// the peers its node hears, so until then even a fault-free cluster asks
// whichever peer dialled first.
func StartCluster(cc ClusterConfig) (*Cluster, error) {
	if cc.N <= 0 {
		return nil, fmt.Errorf("serve: cluster needs n > 0, got %d", cc.N)
	}
	if cc.Dir == "" {
		return nil, fmt.Errorf("serve: cluster needs a WAL root dir")
	}
	cl := &Cluster{
		cfg:         cc,
		Servers:     make([]*Server, cc.N),
		meshAddrs:   make([]string, cc.N),
		clientAddrs: make([]string, cc.N),
	}
	meshLns := make([]net.Listener, cc.N)
	clientLns := make([]net.Listener, cc.N)
	for i := 0; i < cc.N; i++ {
		ml, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll(meshLns, clientLns)
			return nil, fmt.Errorf("serve: bind mesh listener %d: %w", i, err)
		}
		cl0, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			ml.Close()
			closeAll(meshLns, clientLns)
			return nil, fmt.Errorf("serve: bind client listener %d: %w", i, err)
		}
		meshLns[i], clientLns[i] = ml, cl0
		cl.meshAddrs[i] = ml.Addr().String()
		cl.clientAddrs[i] = cl0.Addr().String()
	}
	for i := 0; i < cc.N; i++ {
		cfg := cl.nodeConfig(i)
		cfg.MeshListener = meshLns[i]
		cfg.ClientListener = clientLns[i]
		if cc.Tune != nil {
			cc.Tune(i, &cfg)
		}
		s, err := Start(cfg)
		if err != nil {
			for j := 0; j < i; j++ {
				cl.Servers[j].Close()
			}
			closeAll(meshLns[i:], clientLns[i:])
			return nil, fmt.Errorf("serve: start node %d: %w", i, err)
		}
		cl.Servers[i] = s
	}
	const wait = 5 * time.Second
	for deadline := time.Now().Add(wait); !cl.connected(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			cl.Close()
			return nil, fmt.Errorf("serve: cluster mesh not connected after %v", wait)
		}
	}
	return cl, nil
}

// connected reports whether every node hears every peer.
func (cl *Cluster) connected() bool {
	for i, s := range cl.Servers {
		for p := range cl.Servers {
			if p != i && !s.node.Hears(core.PID(p)) {
				return false
			}
		}
	}
	return true
}

// nodeConfig builds node i's base Config (no listeners attached).
func (cl *Cluster) nodeConfig(i int) Config {
	cc := cl.cfg
	return Config{
		Me:             core.PID(i),
		F:              cc.F,
		MeshAddrs:      cl.meshAddrs,
		ClientAddr:     cl.clientAddrs[i],
		WALDir:         filepath.Join(cc.Dir, fmt.Sprintf("n%d", i)),
		Sync:           cc.Sync,
		MaxInflight:    cc.MaxInflight,
		RequestTimeout: cc.RequestTimeout,
		InstanceTTL:    cc.InstanceTTL,
		Mesh:           cc.Mesh,
		Seed:           cc.Seed + int64(i),
		Observer:       cc.Observer,
		Hist:           cc.Hist,
	}
}

// ClientAddrs returns every node's client-facing address.
func (cl *Cluster) ClientAddrs() []string {
	return append([]string(nil), cl.clientAddrs...)
}

// Restart starts node i again on its original addresses and WAL
// directory: the restarted server replays its journal and re-enters the
// mesh as the next incarnation. The caller must have Killed (or Closed)
// it first. tune, when non-nil, edits the restart Config — by default
// the restart is honest (no planted bug, no crash hook carries over).
func (cl *Cluster) Restart(i int, tune func(cfg *Config)) (*Server, error) {
	cfg := cl.nodeConfig(i)
	ml, err := rebind(cl.meshAddrs[i])
	if err != nil {
		return nil, fmt.Errorf("serve: restart node %d: mesh: %w", i, err)
	}
	cln, err := rebind(cl.clientAddrs[i])
	if err != nil {
		ml.Close()
		return nil, fmt.Errorf("serve: restart node %d: client: %w", i, err)
	}
	cfg.MeshListener, cfg.ClientListener = ml, cln
	if tune != nil {
		tune(&cfg)
	}
	s, err := Start(cfg)
	if err != nil {
		closeAll([]net.Listener{ml}, []net.Listener{cln})
		return nil, fmt.Errorf("serve: restart node %d: %w", i, err)
	}
	cl.Servers[i] = s
	return s, nil
}

// rebindTries bounds rebind: its waits grow from 1 ms to 100 ms and sum
// to about a second.
const rebindTries = 16

// rebind binds a dead node's address again. Its port is back in the
// ephemeral range, where any outbound connection on the host may take it
// as its local port until the connection closes, so a bind that finds the
// port in use is retried with bounded backoff.
func rebind(addr string) (net.Listener, error) {
	wait := time.Millisecond
	for try := 1; ; try++ {
		ln, err := net.Listen("tcp", addr)
		if !errors.Is(err, syscall.EADDRINUSE) {
			return ln, err
		}
		if try == rebindTries {
			return nil, fmt.Errorf("port of %s still in use after %d binds: %w", addr, try, err)
		}
		time.Sleep(wait)
		wait = min(2*wait, 100*time.Millisecond)
	}
}

// Close kills every still-running server cleanly.
func (cl *Cluster) Close() {
	for _, s := range cl.Servers {
		if s != nil {
			s.Close()
		}
	}
}

func closeAll(a, b []net.Listener) {
	for _, ln := range a {
		if ln != nil {
			ln.Close()
		}
	}
	for _, ln := range b {
		if ln != nil {
			ln.Close()
		}
	}
}
