package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/sm"
	"repro/internal/storage"
	"repro/saebft"
)

// keySeed derives every cluster's key material. It is fixed: the run seed
// varies keys of the kv store, the operation mix and the simulated network
// schedule, never the cryptographic keys, because dealing a threshold key
// takes a seed-dependent prime search that would swamp setup_s.
const keySeed = "saebft-benchmark"

// openLoopLimit is the latency limit of the open-loop workload: a reply
// later than this after its due time does not count towards throughput.
const openLoopLimit = 50 * time.Millisecond

// workload is one row of the declarative workload table. Both passes read
// it: the end-to-end run lowers it to saebft options, the traced pass to
// core.Options, so the two assemble the same deployment.
type workload struct {
	Name string
	Why  string

	Mode      saebft.Mode
	Transport string // "tcp", "tls" or "sim"
	MACVotes  bool   // CryptoMAC agreement votes (default Ed25519)
	Durable   bool   // fsync-batched WAL + checkpoint store on a temp dir
	BatchOps  int    // client-side batching envelope size; 0 = off

	Keys      int // preloaded kv keys
	ValueSize int // bytes per value

	Clients     int     // logical clients behind the handle
	Outstanding int     // closed loop: operations kept in flight
	Rate        float64 // open loop: fixed arrivals per second (0 = closed loop)
	ReadShare   float64 // share of operations that are certified reads
}

var workloads = []workload{
	{
		Name: "write-tcp",
		Why:  "headline separated f=g=1 over loopback TCP, one Ed25519-signed request per put, closed loop of 8: auth, pbft, wire, transport work; storage, threshold, firewall, reads, batcher idle",
		Mode: saebft.ModeSeparate, Transport: "tcp",
		Keys: 1000, ValueSize: 128, Clients: 8, Outstanding: 8,
	},
	{
		Name: "batched-durable-tls",
		Why:  "production-hardened: mutual TLS, MAC votes, fsync-batched WAL, 16-op client batches, 10 MB state, closed loop of 64: storage, batcher, checkpoints dominate; request signatures amortised 16:1",
		Mode: saebft.ModeSeparate, Transport: "tls", MACVotes: true, Durable: true, BatchOps: 16,
		Keys: 20000, ValueSize: 512, Clients: 8, Outstanding: 64,
	},
	{
		Name: "readmostly-openloop",
		Why:  "independent users at a fixed 1000 ops/s, 90% certified reads beside 10% puts: execnode read serving and replycert read assembly work, pbft does a tenth; p50 is a read, p95 a write",
		Mode: saebft.ModeSeparate, Transport: "tcp",
		Keys: 1000, ValueSize: 128, Clients: 8, Rate: 1000, ReadShare: 0.9,
	},
	{
		Name: "firewall-sim",
		Why:  "privacy firewall f=g=h=1, 512-bit threshold replies, sealed bodies, on the single-goroutine simulator, closed loop of 8: threshold, seal, firewall, mqueue dominate; sockets bypassed",
		Mode: saebft.ModeFirewall, Transport: "sim",
		Keys: 1000, ValueSize: 128, Clients: 8, Outstanding: 8,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// scratchRoot is where WAL and checkpoint files go: under the working
// directory, because the benchmark may write only inside its checkout. The
// tests point it at a temporary directory instead.
var scratchRoot = ".bench_build"

// scratchDir creates a directory under scratchRoot. The caller removes it.
func scratchDir() (string, error) {
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(scratchRoot, "data-")
}

// clusterOptions lowers the workload to the public API. A batching handle's
// dispatch-width controller is pinned off: its default is bistable (see
// README), and only the adaptive probe measures it, by passing the option
// that turns it back on after these.
func (w *workload) clusterOptions(s *stream, seed int64, dataDir string, basePort int) []saebft.Option {
	tcp := saebft.TCPTransport(saebft.TCPConfig{BasePort: basePort})
	opts := []saebft.Option{
		saebft.WithMode(w.Mode),
		saebft.WithSeed(keySeed),
		saebft.WithNetSeed(seed),
		saebft.WithClients(w.Clients),
		saebft.WithAppFactory(func() saebft.StateMachine { return s.preloaded() }),
	}
	switch w.Transport {
	case "sim":
		opts = append(opts, saebft.WithTransport(saebft.SimTransport()))
	case "tls":
		opts = append(opts, saebft.WithTransport(tcp), saebft.WithTLS(saebft.TLSConfig{Ephemeral: true}))
	default:
		opts = append(opts, saebft.WithTransport(tcp))
	}
	if w.MACVotes {
		opts = append(opts, saebft.WithCrypto(saebft.CryptoConfig{Mode: saebft.CryptoMAC}))
	}
	if w.Durable {
		opts = append(opts, saebft.WithStorage(saebft.StorageConfig{DataDir: dataDir, Fsync: saebft.FsyncBatched}))
	}
	if w.BatchOps > 0 {
		opts = append(opts, saebft.WithClientBatching(w.BatchOps, 0, 200*time.Microsecond),
			saebft.WithAdaptivePipeline(false))
	}
	return opts
}

// coreOptions lowers the workload to the composition layer for the traced
// pass. app and store are the injection points its timing wrappers use.
func (w *workload) coreOptions(seed int64, app func() sm.StateMachine, store storage.Factory) core.Options {
	mode := core.ModeSeparate
	if w.Mode == saebft.ModeFirewall {
		mode = core.ModeFirewall
	}
	return core.Options{
		Mode:         mode,
		Clients:      w.Clients,
		MACAgreement: w.MACVotes,
		Seed:         keySeed,
		NetSeed:      seed,
		App:          app,
		Storage:      store,
	}
}

// cluster is one started deployment plus what must be cleaned up after it.
type cluster struct {
	*saebft.Cluster
	dataDir string
	SetupS  float64 // NewCluster → keys and certificates dealt → Start → state preloaded
}

// portBlock rotates the blocks of loopback ports clusters listen on.
var portBlock atomic.Uint32

// basePort picks the first of a block of consecutive loopback ports below
// the kernel's ephemeral range. The transport's own free-port picker closes
// each port before the node listens on it, and a peer's outbound dial can
// take the port as its source in between; fixed ports cannot be taken that
// way. The block depends on the pid so two benchmark processes rarely
// collide, and rotates so that clusters alive together (the smoke tests) and
// a retry after a busy block get different ones.
func basePort() int {
	return 10000 + (os.Getpid()%150)*128 + int(portBlock.Add(1)%4)*32
}

// startCluster builds and starts the workload's deployment, timing set-up.
// extra options are applied after the workload's own.
func (w *workload) startCluster(s *stream, seed int64, extra ...saebft.Option) (*cluster, error) {
	var err error
	for attempt := 0; attempt < 4; attempt++ {
		var c *cluster
		if c, err = w.startOnce(s, seed, basePort(), extra); err == nil {
			return c, nil
		}
		if !errors.Is(err, syscall.EADDRINUSE) {
			break
		}
	}
	return nil, fmt.Errorf("%s: starting cluster: %w", w.Name, err)
}

func (w *workload) startOnce(s *stream, seed int64, port int, extra []saebft.Option) (*cluster, error) {
	c := &cluster{}
	if w.Durable {
		dir, err := scratchDir()
		if err != nil {
			return nil, err
		}
		c.dataDir = dir
	}
	begin := time.Now()
	sc, err := saebft.NewCluster(append(w.clusterOptions(s, seed, c.dataDir, port), extra...)...)
	if err == nil {
		c.Cluster = sc
		err = sc.Start(context.Background())
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	c.SetupS = time.Since(begin).Seconds()
	return c, nil
}

// Close stops every node and removes the data directory.
func (c *cluster) Close() {
	if c.Cluster != nil {
		c.Cluster.Close()
	}
	if c.dataDir != "" {
		os.RemoveAll(c.dataDir)
	}
}
