// Package deploy runs deployments where every node is its own OS process
// communicating over TCP — the paper's physical-separation model, scaled to
// one box (or several; addresses are arbitrary host:port strings).
//
// A deployment is described by a JSON config file shared by all processes.
// Key material is derived deterministically from the config's seed, standing
// in for the trusted dealer a production system would use: every process
// derives exactly the material its role needs. (Treat the config file as the
// dealer's secret: whoever holds it holds every key.)
package deploy

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/apps/registry"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/replycert"
	"repro/internal/sm"
	"repro/internal/transport"
	"repro/internal/types"
)

// Config is the on-disk deployment descriptor.
type Config struct {
	Seed        string `json:"seed"`
	Mode        string `json:"mode"` // "base", "separate", "firewall"
	App         string `json:"app"`  // "kv", "counter", "nfs", "null"
	F           int    `json:"f"`
	G           int    `json:"g"`
	H           int    `json:"h"`
	Clients     int    `json:"clients"`
	ReplyMode   string `json:"replyMode"` // "quorum", "threshold"
	MACRequests bool   `json:"macRequests"`
	MACOrders   bool   `json:"macOrders"`
	// Crypto selects agreement-vote authentication: "ed25519" (or empty,
	// the default) signs every vote; "mac" uses pairwise-MAC authenticator
	// vectors for pre-prepare/prepare/commit. View-change, new-view, and
	// checkpoint certificates stay Ed25519 either way. Shared config: all
	// agreement replicas must agree on it.
	Crypto        string            `json:"crypto,omitempty"`
	BatchSize     int               `json:"batchSize"`
	ThresholdBits int               `json:"thresholdBits"`
	Addrs         map[string]string `json:"addrs"` // NodeID (decimal) → host:port
	TLS           *TLSSettings      `json:"tls,omitempty"`

	// baseDir is the directory the config was loaded from; relative TLS
	// paths resolve against it so a config file can travel with its certs.
	baseDir string
}

// TLSSettings names the deployment's mutual-TLS material. Paths are
// relative to the config file's directory (or absolute). CertDir holds one
// node-<id>.pem / node-<id>-key.pem pair per identity, clients included.
type TLSSettings struct {
	CA      string `json:"ca"`
	CertDir string `json:"certDir"`
}

// Default returns a one-box deployment descriptor with sequential loopback
// ports starting at basePort.
func Default(mode, app string, basePort int) (*Config, error) {
	cfg := &Config{
		Seed:          "saebft-demo",
		Mode:          mode,
		App:           app,
		F:             1,
		G:             1,
		H:             1,
		Clients:       2,
		ReplyMode:     "quorum",
		ThresholdBits: 1024,
		BatchSize:     8,
		Addrs:         make(map[string]string),
	}
	if mode == "firewall" {
		cfg.ReplyMode = "threshold"
	}
	m, err := cfg.CoreMode()
	if err != nil {
		return nil, err
	}
	top := core.BuildTopology(cfg.F, cfg.G, cfg.H, cfg.Clients, m)
	port := basePort
	for _, id := range top.AllNodes() {
		cfg.Addrs[strconv.Itoa(int(id))] = fmt.Sprintf("127.0.0.1:%d", port)
		port++
	}
	return cfg, nil
}

// Load reads a config file.
func Load(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cfg Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("deploy: parsing %s: %w", path, err)
	}
	cfg.baseDir = filepath.Dir(path)
	return &cfg, nil
}

// ResolvePath resolves a config-relative path against the directory the
// config was loaded from. Absolute paths and configs never loaded from disk
// pass through unchanged.
func (c *Config) ResolvePath(p string) string {
	if p == "" || filepath.IsAbs(p) || c.baseDir == "" {
		return p
	}
	return filepath.Join(c.baseDir, p)
}

// TLSPaths returns the CA certificate and identity cert/key paths for id,
// resolved against the config location; ok is false when the deployment is
// plaintext.
func (c *Config) TLSPaths(id types.NodeID) (ca, cert, key string, ok bool) {
	if c.TLS == nil {
		return "", "", "", false
	}
	dir := c.ResolvePath(c.TLS.CertDir)
	return c.ResolvePath(c.TLS.CA),
		filepath.Join(dir, fmt.Sprintf("node-%d.pem", id)),
		filepath.Join(dir, fmt.Sprintf("node-%d-key.pem", id)),
		true
}

// GenerateTLS mints a fresh cluster CA plus one leaf certificate pair per
// given identity, writes the PEM files under writeDir (created if needed),
// and records recordDir's paths in the config. Callers that know where the
// config file will live pass recordDir relative to it and writeDir resolved
// against that location, so the config and its certs travel together; the
// simple case is writeDir == recordDir. The CA key (ca-key.pem) is written
// alongside for minting future certificates; nodes never need it.
func (c *Config) GenerateTLS(ids []types.NodeID, writeDir, recordDir string) error {
	dir := writeDir
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return err
	}
	ca, err := transport.NewCA("saebft cluster CA (" + c.Seed + ")")
	if err != nil {
		return err
	}
	caKey, err := ca.KeyPEM()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "ca.pem"), ca.CertPEM(), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "ca-key.pem"), caKey, 0o600); err != nil {
		return err
	}
	for _, id := range ids {
		certPEM, keyPEM, err := ca.IssuePEM(id)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("node-%d.pem", id)), certPEM, 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("node-%d-key.pem", id)), keyPEM, 0o600); err != nil {
			return err
		}
	}
	c.TLS = &TLSSettings{CA: filepath.Join(recordDir, "ca.pem"), CertDir: recordDir}
	return nil
}

// Security loads identity id's TLS material per the config; nil when the
// deployment is plaintext.
func (c *Config) Security(id types.NodeID) (*transport.Security, error) {
	ca, cert, key, ok := c.TLSPaths(id)
	if !ok {
		return nil, nil
	}
	sec, err := transport.LoadSecurity(id, ca, cert, key)
	if err != nil {
		return nil, fmt.Errorf("deploy: TLS material for node %v: %w", id, err)
	}
	return sec, nil
}

// Save writes the config file.
func (c *Config) Save(path string) error {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o600)
}

// CoreMode parses the mode field.
func (c *Config) CoreMode() (core.Mode, error) {
	switch c.Mode {
	case "base":
		return core.ModeBASE, nil
	case "separate", "":
		return core.ModeSeparate, nil
	case "firewall":
		return core.ModeFirewall, nil
	default:
		return 0, fmt.Errorf("deploy: unknown mode %q", c.Mode)
	}
}

// AppFactory resolves the application name through the shared registry, so
// deployment configs and the public saebft API agree on what names mean.
func (c *Config) AppFactory() (func() sm.StateMachine, error) {
	f, err := registry.Factory(c.App)
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	return f, nil
}

// Options converts the config into core options.
func (c *Config) Options() (core.Options, error) {
	mode, err := c.CoreMode()
	if err != nil {
		return core.Options{}, err
	}
	app, err := c.AppFactory()
	if err != nil {
		return core.Options{}, err
	}
	opts := core.Options{
		F:             c.F,
		G:             c.G,
		H:             c.H,
		Clients:       c.Clients,
		Mode:          mode,
		MACRequests:   c.MACRequests,
		MACOrders:     c.MACOrders,
		BatchSize:     c.BatchSize,
		ThresholdBits: c.ThresholdBits,
		Seed:          c.Seed,
		App:           app,
	}
	switch c.ReplyMode {
	case "threshold":
		opts.ReplyMode = replycert.ModeThreshold
	case "quorum", "":
		opts.ReplyMode = replycert.ModeQuorum
	default:
		return core.Options{}, fmt.Errorf("deploy: unknown reply mode %q", c.ReplyMode)
	}
	switch c.Crypto {
	case "mac":
		opts.MACAgreement = true
	case "ed25519", "":
	default:
		return core.Options{}, fmt.Errorf("deploy: unknown crypto mode %q", c.Crypto)
	}
	return opts, nil
}

// addrMap converts the JSON address table to NodeID keys.
func (c *Config) addrMap() (map[types.NodeID]string, error) {
	out := make(map[types.NodeID]string, len(c.Addrs))
	for k, v := range c.Addrs {
		n, err := strconv.Atoi(k)
		if err != nil {
			return nil, fmt.Errorf("deploy: bad node id %q in addrs", k)
		}
		out[types.NodeID(n)] = v
	}
	return out, nil
}

// RunningNode is one live TCP-backed node.
type RunningNode struct {
	ID      types.NodeID
	Role    types.Role
	Net     *transport.TCPNet
	node    transport.Node
	runtime *transport.Runtime
}

// Inspect runs fn on the node's runtime goroutine with the protocol node,
// serialized against message delivery (debugging and tests only).
func (n *RunningNode) Inspect(fn func(node transport.Node)) {
	n.runtime.Do(func(types.Time) { fn(n.node) })
}

// Close shuts the node down gracefully: the durable store (if any) is
// flushed and closed on the runtime goroutine — serialized against message
// delivery, so no record is torn mid-write — before the transports stop.
func (n *RunningNode) Close() {
	n.runtime.Do(func(types.Time) {
		if s, ok := n.node.(interface{ Shutdown() }); ok {
			s.Shutdown()
		}
	})
	n.runtime.Close()
	n.Net.Close()
}

// Kill tears the node down without flushing its store, simulating a crash
// (kill -9): buffered WAL appends are discarded and the data-dir lock
// released, as process death would. Recovery tests use it; everything else
// should Close.
func (n *RunningNode) Kill() {
	n.runtime.Close()
	if cs, ok := n.node.(interface{ CrashStop() }); ok {
		cs.CrashStop()
	}
	n.Net.Close()
}

// NodeOptions carries per-process settings that are not part of the shared
// deployment config.
type NodeOptions struct {
	// DataDir is the durable-storage root shared by the deployment's
	// processes on this filesystem; the node persists under
	// <DataDir>/node-<id>. Empty runs the node in-memory.
	DataDir string
	// VolatileVotes disables agreement-side voting-state durability
	// (core.Options.VolatileVotes); committed batches and checkpoints
	// stay durable. Benchmark use.
	VolatileVotes bool
	// TLSCA, TLSCert, TLSKey override the config's TLS material for this
	// process (all three together). When the config has no TLS section,
	// setting them enables TLS for this node.
	TLSCA, TLSCert, TLSKey string
	// DisableTLS forces plaintext links even when the config has a TLS
	// section (loopback debugging only).
	DisableTLS bool
	// VerifyWorkers sizes this process's bounded certificate-verification
	// pool (core.Options.VerifyWorkers). Per-process tuning, not protocol
	// surface: peers need not agree on it. 0 or 1 verifies inline.
	VerifyWorkers int
	// Obs, when non-nil, is the process-wide metrics registry every layer
	// of this node records into (core.Options.Obs); Trace is the bounded
	// per-operation lifecycle ring. Both are optional.
	Obs   *obs.Registry
	Trace *obs.Tracer
}

// security resolves the node's link security from the per-process overrides
// and the shared config, in that order.
func (n NodeOptions) security(cfg *Config, id types.NodeID) (*transport.Security, error) {
	if n.DisableTLS {
		return nil, nil
	}
	if n.TLSCert != "" || n.TLSKey != "" || n.TLSCA != "" {
		if n.TLSCA == "" || n.TLSCert == "" || n.TLSKey == "" {
			return nil, fmt.Errorf("deploy: TLS override needs all of CA, cert, and key")
		}
		sec, err := transport.LoadSecurity(id, n.TLSCA, n.TLSCert, n.TLSKey)
		if err != nil {
			return nil, fmt.Errorf("deploy: TLS material for node %v: %w", id, err)
		}
		return sec, nil
	}
	return cfg.Security(id)
}

// StartNode builds and runs the node with the given identity over TCP. It
// returns once the node is listening; the node runs until Close.
func StartNode(cfg *Config, id types.NodeID) (*RunningNode, error) {
	return StartNodeOpts(cfg, id, NodeOptions{})
}

// StartNodeOpts is StartNode with per-process options (durable storage).
func StartNodeOpts(cfg *Config, id types.NodeID, nopts NodeOptions) (*RunningNode, error) {
	opts, err := cfg.Options()
	if err != nil {
		return nil, err
	}
	opts.DataDir = nopts.DataDir
	opts.VolatileVotes = nopts.VolatileVotes
	opts.VerifyWorkers = nopts.VerifyWorkers
	opts.Obs = nopts.Obs
	opts.Trace = nopts.Trace
	b, err := core.NewBuilder(opts)
	if err != nil {
		return nil, err
	}
	addrs, err := cfg.addrMap()
	if err != nil {
		return nil, err
	}
	sec, err := nopts.security(cfg, id)
	if err != nil {
		return nil, err
	}
	return StartBuilderNodeOpts(b, addrs, id, transport.TCPOptions{Security: sec})
}

// StartBuilderNode runs one node of an already-prepared builder over
// plaintext TCP with default link tuning; see StartBuilderNodeOpts.
func StartBuilderNode(b *core.Builder, addrs map[types.NodeID]string, id types.NodeID) (*RunningNode, error) {
	return StartBuilderNodeOpts(b, addrs, id, transport.TCPOptions{})
}

// StartBuilderNodeOpts runs one node of an already-prepared builder over
// TCP with explicit link options (mutual TLS, timeouts, queue bounds). The
// public saebft API uses it to run clusters built from programmatic options
// (including custom application factories that no config file could name);
// StartNode is the config-file path to the same wiring.
func StartBuilderNodeOpts(b *core.Builder, addrs map[types.NodeID]string, id types.NodeID, topts transport.TCPOptions) (*RunningNode, error) {
	role, _, ok := b.Top.RoleOf(id)
	if !ok {
		return nil, fmt.Errorf("deploy: node %v is not part of the topology", id)
	}

	// Link metrics land in the same registry as the protocol layers unless
	// the caller wired the transport explicitly.
	if topts.Obs == nil {
		topts.Obs = b.Opts.Obs
	}
	if topts.Obs != nil && topts.ObsNode == "" {
		topts.ObsNode = strconv.Itoa(int(id))
	}

	// The TCP handler is installed after construction; an atomic
	// indirection breaks the circular dependency between node and net.
	// Messages arriving before installation are dropped, which the
	// protocols tolerate (peers retransmit).
	var runtimeHandler atomic.Pointer[func(from types.NodeID, data []byte)]
	tcp, err := transport.NewTCPNetOpts(id, addrs, func(from types.NodeID, data []byte) {
		if h := runtimeHandler.Load(); h != nil {
			(*h)(from, data)
		}
	}, topts)
	if err != nil {
		return nil, err
	}

	var node transport.Node
	switch role {
	case types.RoleAgreement:
		node, _, _, err = b.AgreementNode(id, tcp.Send)
	case types.RoleExecution:
		node, _, err = b.ExecNode(id, tcp.Send)
	case types.RoleFilter:
		node, err = b.FilterNode(id, tcp.Send)
	default:
		err = fmt.Errorf("deploy: StartNode does not run clients; dial the deployment with saebft.DialConfig")
	}
	if err != nil {
		tcp.Close()
		return nil, err
	}
	rt, handler := transport.NewRuntime(node, tcp.Now, time.Millisecond)
	runtimeHandler.Store(&handler)
	return &RunningNode{ID: id, Role: role, Net: tcp, node: node, runtime: rt}, nil
}
