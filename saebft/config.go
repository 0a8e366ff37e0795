package saebft

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/types"
)

// Config describes a multi-process deployment: topology sizes, application,
// authentication choices, the key-material seed, and every node's address.
// It round-trips through the same JSON file the saebft-* command-line tools
// share. Key material is derived deterministically from the seed, so the
// file stands in for a trusted dealer: distribute it only to machines that
// run nodes, and treat it as secret.
type Config struct {
	d descriptor

	// baseDir is the directory the config was loaded from; relative TLS
	// paths resolve against it so a config file can travel with its certs.
	baseDir string
}

// descriptor is the on-disk JSON form of a Config. Keys a previous version
// wrote and this one no longer knows are ignored on load.
type descriptor struct {
	Seed      string `json:"seed"`
	Mode      string `json:"mode"` // "base", "separate", "firewall"
	App       string `json:"app"`  // a registered app name; "" means "kv"
	F         int    `json:"f"`
	G         int    `json:"g"`
	H         int    `json:"h"`
	Clients   int    `json:"clients"`
	ReplyMode string `json:"replyMode"` // "quorum", "threshold"
	// Crypto selects agreement-vote authentication: "ed25519" (or empty)
	// or "mac"; see parseCrypto.
	Crypto        string            `json:"crypto,omitempty"`
	BatchSize     int               `json:"batchSize"`
	ThresholdBits int               `json:"thresholdBits"`
	Addrs         map[string]string `json:"addrs"` // NodeID (decimal) → host:port
	TLS           *tlsSettings      `json:"tls,omitempty"`
}

// tlsSettings names the deployment's mutual-TLS material. Paths are
// relative to the config file's directory (or absolute). CertDir holds one
// certificate/key pair per identity, clients included (see certFiles).
type tlsSettings struct {
	CA      string `json:"ca"`
	CertDir string `json:"certDir"`
}

// DeployParams parameterizes GenerateConfig. Zero values take defaults:
// mode separate, app "kv", f=g=h=1, 2 clients, batch 8, 1024-bit threshold
// keys, host 127.0.0.1.
type DeployParams struct {
	Mode          Mode
	App           string
	Seed          string
	F, G, H       int
	Clients       int
	ReplyMode     ReplyMode
	BatchSize     int
	ThresholdBits int

	// Crypto selects the agreement-vote authenticator scheme: "ed25519"
	// (or empty) for transferable signatures, "mac" for pairwise MAC
	// vectors on pre-prepare/prepare/commit traffic. View changes, new
	// views, and checkpoint certificates stay Ed25519 either way — they
	// are shown beyond their original destination, which MAC vectors
	// cannot support. Shared protocol surface: every agreement replica
	// follows this field.
	Crypto string

	// BasePort assigns consecutive ports starting here; Host defaults to
	// 127.0.0.1. Edit the saved file for multi-machine layouts.
	BasePort int
	Host     string

	// TLSDir, when set, mints a cluster CA plus per-identity certificates
	// under this directory and records the paths in the config, exactly
	// like Config.GenerateTLS — so the emitted deployment runs every link
	// over mutual TLS. Keep it relative to where the config file will be
	// saved.
	TLSDir string
}

// GenerateConfig builds a deployment descriptor, assigning an address to
// every identity in the topology (including all client identities).
func GenerateConfig(p DeployParams) (*Config, error) {
	if p.App == "" {
		p.App = "kv"
	}
	if p.F == 0 {
		p.F = 1
	}
	if p.G == 0 {
		p.G = 1
	}
	if p.H == 0 {
		p.H = 1
	}
	if p.Clients == 0 {
		p.Clients = 2
	}
	if p.BatchSize == 0 {
		p.BatchSize = 8
	}
	if p.ThresholdBits == 0 {
		p.ThresholdBits = 1024
	}
	if p.Seed == "" {
		p.Seed = "saebft-demo"
	}
	if p.Host == "" {
		p.Host = "127.0.0.1"
	}
	if p.BasePort == 0 {
		p.BasePort = 7000
	}
	if p.Mode == ModeFirewall {
		p.ReplyMode = ReplyThreshold
	}
	c := &Config{d: descriptor{
		Seed:          p.Seed,
		Mode:          p.Mode.String(),
		App:           p.App,
		F:             p.F,
		G:             p.G,
		H:             p.H,
		Clients:       p.Clients,
		ReplyMode:     p.ReplyMode.String(),
		Crypto:        p.Crypto,
		BatchSize:     p.BatchSize,
		ThresholdBits: p.ThresholdBits,
		Addrs:         make(map[string]string),
	}}
	top, err := c.topology()
	if err != nil {
		return nil, err
	}
	port := p.BasePort
	for _, id := range top.AllNodes() {
		c.d.Addrs[strconv.Itoa(int(id))] = fmt.Sprintf("%s:%d", p.Host, port)
		port++
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	if p.TLSDir != "" {
		if err := c.GenerateTLS(p.TLSDir); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// LoadConfig reads a deployment descriptor from disk and validates it: its
// mode, reply mode, crypto, and application names, its topology, and its
// address table.
func LoadConfig(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c := &Config{baseDir: filepath.Dir(path)}
	if err := json.Unmarshal(data, &c.d); err != nil {
		return nil, fmt.Errorf("saebft: parsing %s: %w", path, err)
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// validate is the one check every descriptor passes, generated or loaded:
// its names parse, its topology is valid, every addrs key is the decimal id
// of an identity in that topology, and every identity that runs a node —
// and every client — has an address. Without the last rule a missing peer
// surfaces only as frames silently dropped at run time.
func (c *Config) validate() error {
	if _, err := c.coreOptions(); err != nil {
		return err
	}
	top, err := c.topology()
	if err != nil {
		return err
	}
	for k := range c.d.Addrs {
		id, err := strconv.Atoi(k)
		if err != nil {
			return fmt.Errorf("saebft: bad node id %q in addrs", k)
		}
		if _, _, ok := top.RoleOf(types.NodeID(id)); !ok {
			return fmt.Errorf("saebft: addrs names node %d, which is not part of the topology", id)
		}
	}
	nodes, err := c.Nodes()
	if err != nil {
		return err
	}
	for _, n := range nodes {
		if n.Addr == "" {
			return fmt.Errorf("saebft: addrs has no address for %s %d", n.Role, n.ID)
		}
	}
	return nil
}

// coreOptions lowers the descriptor to the composition layer's options —
// the only place its mode, reply-mode, crypto, and app names are parsed.
// Per-process settings (storage, observability, verify workers) are the
// caller's to add.
func (c *Config) coreOptions() (core.Options, error) {
	mode, err := ParseMode(c.d.Mode)
	if err != nil {
		return core.Options{}, err
	}
	reply, err := ParseReplyMode(c.d.ReplyMode)
	if err != nil {
		return core.Options{}, err
	}
	crypto, err := parseCrypto(c.d.Crypto)
	if err != nil {
		return core.Options{}, err
	}
	app, err := appFactory(c.d.App)
	if err != nil {
		return core.Options{}, fmt.Errorf("saebft: %w", err)
	}
	return core.Options{
		F:             c.d.F,
		G:             c.d.G,
		H:             c.d.H,
		Clients:       c.d.Clients,
		Mode:          mode.coreMode(),
		ReplyMode:     reply.coreMode(),
		MACAgreement:  crypto == CryptoMAC,
		BatchSize:     c.d.BatchSize,
		ThresholdBits: c.d.ThresholdBits,
		Seed:          c.d.Seed,
		App:           app,
	}, nil
}

// parseCrypto parses a config-file crypto name. The empty string means
// CryptoEd25519.
func parseCrypto(s string) (CryptoMode, error) {
	switch s {
	case "ed25519", "":
		return CryptoEd25519, nil
	case "mac":
		return CryptoMAC, nil
	default:
		return 0, fmt.Errorf("saebft: unknown crypto mode %q (want \"ed25519\" or \"mac\")", s)
	}
}

// Save writes the descriptor to disk (mode 0600 — it holds the key seed).
func (c *Config) Save(path string) error {
	data, err := json.MarshalIndent(&c.d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o600)
}

// Mode returns the deployment's architecture.
func (c *Config) Mode() Mode {
	m, _ := ParseMode(c.d.Mode)
	return m
}

// App returns the deployment's application name ("" means "kv").
func (c *Config) App() string {
	if c.d.App == "" {
		return "kv"
	}
	return c.d.App
}

// Seed returns the key-material seed.
func (c *Config) Seed() string { return c.d.Seed }

// Effective fault thresholds and client count — zero config fields default
// the same way node construction defaults them.

// F returns the tolerated agreement faults (3F+1 replicas).
func (c *Config) F() int { return defaultOne(c.d.F) }

// G returns the tolerated execution faults (2G+1 replicas).
func (c *Config) G() int { return defaultOne(c.d.G) }

// H returns the tolerated per-row filter faults ((H+1)² filters).
func (c *Config) H() int { return defaultOne(c.d.H) }

// Clients returns the number of client identities.
func (c *Config) Clients() int { return defaultOne(c.d.Clients) }

func defaultOne(n int) int {
	if n == 0 {
		return 1
	}
	return n
}

// topology lays out the config's node identities, applying the same
// defaults the node-construction path does.
func (c *Config) topology() (*types.Topology, error) {
	m, err := ParseMode(c.d.Mode)
	if err != nil {
		return nil, err
	}
	top := core.BuildTopology(c.F(), c.G(), c.H(), c.Clients(), m.coreMode())
	if err := top.Validate(); err != nil {
		return nil, err
	}
	return top, nil
}

// NodeInfo describes one identity in a deployment.
type NodeInfo struct {
	ID   int
	Role string // "agreement", "execution", "filter", "client"
	Addr string
}

// Nodes lists every identity in the deployment in id order.
func (c *Config) Nodes() ([]NodeInfo, error) {
	top, err := c.topology()
	if err != nil {
		return nil, err
	}
	out := make([]NodeInfo, 0, len(c.d.Addrs))
	for _, id := range top.AllNodes() {
		role, _, _ := top.RoleOf(id)
		// BASE mode builds no execution replicas; don't list identities
		// an operator could never start.
		if role == types.RoleExecution && c.Mode() == ModeBase {
			continue
		}
		out = append(out, NodeInfo{
			ID:   int(id),
			Role: role.String(),
			Addr: c.d.Addrs[strconv.Itoa(int(id))],
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// ClientIDs lists the deployment's client identities in id order.
func (c *Config) ClientIDs() ([]int, error) {
	top, err := c.topology()
	if err != nil {
		return nil, err
	}
	out := make([]int, 0, len(top.Clients))
	for _, id := range top.Clients {
		out = append(out, int(id))
	}
	sort.Ints(out)
	return out, nil
}

// SetAddr overrides one identity's address — for multi-machine layouts or
// tests that need kernel-assigned free ports.
func (c *Config) SetAddr(id int, addr string) error {
	top, err := c.topology()
	if err != nil {
		return err
	}
	if _, _, ok := top.RoleOf(types.NodeID(id)); !ok {
		return fmt.Errorf("saebft: node %d is not part of the topology", id)
	}
	c.d.Addrs[strconv.Itoa(id)] = addr
	return nil
}

// addrMap converts the JSON address table to NodeID keys, which validate
// has checked are decimal ids.
func (c *Config) addrMap() map[types.NodeID]string {
	out := make(map[types.NodeID]string, len(c.d.Addrs))
	for k, v := range c.d.Addrs {
		n, _ := strconv.Atoi(k)
		out[types.NodeID(n)] = v
	}
	return out
}
