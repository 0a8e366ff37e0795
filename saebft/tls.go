package saebft

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/transport"
	"repro/internal/types"
)

// TLSConfig enables mutual TLS with authenticated identity binding on every
// TCP link of an in-process cluster (WithTLS). Exactly one of Dir or
// Ephemeral must be set.
//
// Every connection between nodes (and from clients) is then TLS 1.3 with
// both sides presenting cluster-CA-signed certificates; each certificate is
// bound to one node identity, and a peer whose authenticated identity does
// not match the identity it claims is rejected before a single protocol
// byte is parsed. The simulated transport has no links and rejects WithTLS.
type TLSConfig struct {
	// Dir names a directory of PEM material as minted by
	// `saebft-keygen -tls` or Config.GenerateTLS: ca.pem plus a
	// node-<id>.pem / node-<id>-key.pem pair for every identity this
	// process runs (all of them, for an in-process cluster).
	Dir string

	// Ephemeral mints a fresh in-memory cluster CA and per-identity
	// certificates when the cluster starts; nothing touches disk. The
	// natural choice for in-process clusters and tests, where all
	// identities live in one process anyway.
	Ephemeral bool
}

func (c TLSConfig) enabled() bool { return c.Dir != "" || c.Ephemeral }

// securityProvider yields per-identity link-security material for the nodes
// and client endpoints a process runs; nil means plaintext.
type securityProvider func(id types.NodeID) (*transport.Security, error)

// provider resolves the config into a per-identity loader (or minter).
func (c TLSConfig) provider() (securityProvider, error) {
	if !c.enabled() {
		return nil, nil
	}
	if c.Dir != "" && c.Ephemeral {
		return nil, fmt.Errorf("saebft: TLSConfig sets both Dir and Ephemeral")
	}
	if c.Ephemeral {
		ca, err := transport.NewCA("saebft ephemeral cluster CA")
		if err != nil {
			return nil, err
		}
		return ca.Identity, nil
	}
	dir := c.Dir
	return func(id types.NodeID) (*transport.Security, error) {
		cert, key := certFiles(dir, id)
		return transport.LoadSecurity(id, filepath.Join(dir, "ca.pem"), cert, key)
	}, nil
}

// certFiles names identity id's certificate and private key under dir: the
// one layout GenerateTLS writes and both TLSConfig.Dir and a config's
// certDir are read with.
func certFiles(dir string, id types.NodeID) (cert, key string) {
	return filepath.Join(dir, fmt.Sprintf("node-%d.pem", id)),
		filepath.Join(dir, fmt.Sprintf("node-%d-key.pem", id))
}

// WithTLS runs every TCP link of the cluster over mutual TLS with
// authenticated identity binding. Requires WithTransport(TCPTransport(...));
// see TLSConfig for the material layout.
func WithTLS(cfg TLSConfig) Option { return func(o *options) { o.tls = cfg } }

// LinkStats aggregates the TCP transport's link-state counters across every
// endpoint a process runs. All counters are cumulative; the deployment and
// troubleshooting guide (docs/DEPLOYMENT.md) is keyed to them. Always zero
// on the simulated transport, which has no links.
type LinkStats struct {
	Dials             uint64 // outbound connection attempts
	DialFailures      uint64 // attempts that failed before any handshake (peer down, unroutable)
	Handshakes        uint64 // authenticated handshakes completed (both directions)
	HandshakeFailures uint64 // TLS or hello failures — wrong CA, wrong cluster, port scanners
	AuthRejects       uint64 // authenticated peer identity contradicted the identity it claimed
	Reconnects        uint64 // successful re-handshakes after a link was lost
	FramesSent        uint64
	FramesReceived    uint64
	BytesSent         uint64
	BytesReceived     uint64
	FramesDropped     uint64 // bounded-queue oldest-drops and frames abandoned while a peer was down
}

// add accumulates one endpoint's transport counters.
func (s *LinkStats) add(t transport.LinkStats) {
	s.Dials += t.Dials
	s.DialFailures += t.DialFailures
	s.Handshakes += t.Handshakes
	s.HandshakeFailures += t.HandshakeFailures
	s.AuthRejects += t.AuthRejects
	s.Reconnects += t.Reconnects
	s.FramesSent += t.FramesSent
	s.FramesReceived += t.FramesReceived
	s.BytesSent += t.BytesSent
	s.BytesReceived += t.BytesReceived
	s.FramesDropped += t.FramesDropped
}

// GenerateTLS mints a cluster CA plus a certificate pair for every identity
// in the config's topology (clients included), writes the PEM files under
// dir, and records the paths in the config — so a subsequent Save emits a
// descriptor whose nodes and clients all come up over mutual TLS.
//
// dir is recorded in the config as given; keep it relative to the directory
// the config file will live in (LoadConfig resolves relative paths against
// the config file's location), or use GenerateTLSFor, which handles that
// placement. The CA key is written as ca-key.pem for minting future
// certificates; no node ever needs it.
func (c *Config) GenerateTLS(dir string) error {
	return c.generateTLS(dir, dir)
}

// GenerateTLSFor is GenerateTLS for a config that will be saved at
// configPath: a relative dir is written next to the config file (where
// LoadConfig will later resolve it) while the config records dir as given.
// saebft-keygen uses it so `-out deploy/cluster.json -tls` puts the certs
// under deploy/certs no matter where keygen runs.
func (c *Config) GenerateTLSFor(configPath, dir string) error {
	writeDir := dir
	if !filepath.IsAbs(dir) {
		writeDir = filepath.Join(filepath.Dir(configPath), dir)
	}
	return c.generateTLS(writeDir, dir)
}

// generateTLS is GenerateTLS writing the PEM files under writeDir (created
// if needed) while recording recordDir's paths in the config.
func (c *Config) generateTLS(writeDir, recordDir string) error {
	top, err := c.topology()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(writeDir, 0o700); err != nil {
		return err
	}
	ca, err := transport.NewCA("saebft cluster CA (" + c.d.Seed + ")")
	if err != nil {
		return err
	}
	caKey, err := ca.KeyPEM()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(writeDir, "ca.pem"), ca.CertPEM(), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(writeDir, "ca-key.pem"), caKey, 0o600); err != nil {
		return err
	}
	for _, id := range top.AllNodes() {
		certPEM, keyPEM, err := ca.IssuePEM(id)
		if err != nil {
			return err
		}
		cert, key := certFiles(writeDir, id)
		if err := os.WriteFile(cert, certPEM, 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(key, keyPEM, 0o600); err != nil {
			return err
		}
	}
	c.d.TLS = &tlsSettings{CA: filepath.Join(recordDir, "ca.pem"), CertDir: recordDir}
	return nil
}

// TLSEnabled reports whether the config prescribes mutual-TLS links.
func (c *Config) TLSEnabled() bool { return c.d.TLS != nil }

// TLSPaths returns the CA certificate and the cert/key pair paths the
// config prescribes for identity id, resolved against the config file's
// location; ok is false when the deployment is plaintext. Command-line
// tools use it to default their -ca/-cert/-key flags.
func (c *Config) TLSPaths(id int) (ca, cert, key string, ok bool) {
	if c.d.TLS == nil {
		return "", "", "", false
	}
	cert, key = certFiles(c.resolvePath(c.d.TLS.CertDir), types.NodeID(id))
	return c.resolvePath(c.d.TLS.CA), cert, key, true
}

// resolvePath resolves a config-relative path against the directory the
// config was loaded from. Absolute paths and configs never loaded from disk
// pass through unchanged.
func (c *Config) resolvePath(p string) string {
	if p == "" || filepath.IsAbs(p) || c.baseDir == "" {
		return p
	}
	return filepath.Join(c.baseDir, p)
}

// linkTLS is the per-process TLS choice a Node (NodeTLS, NodeInsecure) or a
// dialed handle (DialTLS, DialInsecure) carries beside the shared config.
type linkTLS struct {
	ca, cert, key string
	insecure      bool
}

// security resolves identity id's link material: plaintext when insecure;
// else the override files, which must name CA, cert and key together; else
// the config's tls section; else plaintext.
func (l linkTLS) security(cfg *Config, id types.NodeID) (*transport.Security, error) {
	if l.insecure {
		return nil, nil
	}
	ca, cert, key := l.ca, l.cert, l.key
	if ca == "" && cert == "" && key == "" {
		var ok bool
		if ca, cert, key, ok = cfg.TLSPaths(int(id)); !ok {
			return nil, nil
		}
	} else if ca == "" || cert == "" || key == "" {
		return nil, fmt.Errorf("saebft: TLS override for node %v needs all of CA, cert, and key", id)
	}
	sec, err := transport.LoadSecurity(id, ca, cert, key)
	if err != nil {
		return nil, fmt.Errorf("saebft: TLS material for node %v: %w", id, err)
	}
	return sec, nil
}

// TLSFlags carries the conventional -tls/-ca/-cert/-key command-line flag
// values the saebft tools share; Resolve turns them into a decision. TLSSet
// distinguishes an explicit -tls=false (force plaintext) from the flag
// being absent (follow the config).
type TLSFlags struct {
	TLS           bool
	TLSSet        bool
	CA, Cert, Key string
}

// Resolve applies the shared flag semantics against the config for identity
// id: explicit file flags override the config's paths (unset ones fill in
// from the config) and enable TLS even without a config tls section;
// -tls=false forces plaintext (insecure=true); bare -tls errors when no
// material exists anywhere. ca=="" with insecure==false means config-driven
// — TLS exactly when the config prescribes it.
func (f TLSFlags) Resolve(cfg *Config, id int) (ca, cert, key string, insecure bool, err error) {
	if f.TLSSet && !f.TLS {
		return "", "", "", true, nil
	}
	ca, cert, key = f.CA, f.Cert, f.Key
	if ca != "" || cert != "" || key != "" {
		cca, ccert, ckey, _ := cfg.TLSPaths(id)
		if ca == "" {
			ca = cca
		}
		if cert == "" {
			cert = ccert
		}
		if key == "" {
			key = ckey
		}
		if ca == "" || cert == "" || key == "" {
			return "", "", "", false, fmt.Errorf("saebft: TLS needs all of -ca, -cert, -key when the config has no tls section")
		}
		return ca, cert, key, false, nil
	}
	if f.TLS && !cfg.TLSEnabled() {
		return "", "", "", false, fmt.Errorf("saebft: -tls requested but the config has no tls section and no -ca/-cert/-key were given; regenerate with `saebft-keygen -tls` or pass the material explicitly")
	}
	return "", "", "", false, nil
}
