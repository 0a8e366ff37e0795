package saebft

import (
	"bytes"
	"context"
	"net"
	"path/filepath"
	"testing"
	"time"
)

// TestTLSLoopbackCluster runs the full separated topology — 4 agreement
// replicas, 3 execution replicas, clients — over mutual-TLS loopback TCP
// and proves certified replies verify end-to-end across authenticated
// links. This is the CI proof behind docs/DEPLOYMENT.md.
func TestTLSLoopbackCluster(t *testing.T) {
	c, err := NewCluster(
		WithMode(ModeSeparate),
		WithApp("kv"),
		WithClients(2),
		WithTransport(TCPTransport()),
		WithTLS(TLSConfig{Ephemeral: true}),
		WithThresholdBits(512),
		WithInvokeTimeout(20*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	cl := c.Client()
	put, _ := EncodeOp("kv", "put", "channel", "mTLS")
	if reply, err := cl.Invoke(ctx, put); err != nil || string(reply) != "OK" {
		t.Fatalf("put over mTLS: %q, %v", reply, err)
	}
	get, _ := EncodeOp("kv", "get", "channel")
	reply, err := cl.Invoke(ctx, get)
	if err != nil {
		t.Fatalf("get over mTLS: %v", err)
	}
	if !bytes.Equal(reply, []byte("mTLS")) {
		t.Fatalf("get reply = %q, want mTLS", reply)
	}

	s, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s.Link.Handshakes == 0 {
		t.Error("no authenticated handshakes recorded on a TLS cluster")
	}
	if s.Link.AuthRejects != 0 || s.Link.HandshakeFailures != 0 {
		t.Errorf("honest cluster recorded rejects: %+v", s.Link)
	}
	if s.Replies == 0 {
		t.Error("no certified replies recorded")
	}
}

// TestTLSRequiresTCPTransport: securing the simulated transport is a
// configuration error, not a silent no-op.
func TestTLSRequiresTCPTransport(t *testing.T) {
	if _, err := NewCluster(WithTLS(TLSConfig{Ephemeral: true})); err == nil {
		t.Fatal("WithTLS on the simulated transport did not error")
	}
	if _, err := NewCluster(
		WithTransport(TCPTransport()),
		WithTLS(TLSConfig{Ephemeral: true, Dir: "certs"}),
	); err == nil {
		t.Fatal("TLSConfig with both Dir and Ephemeral did not error")
	}
}

// TestTLSFlagsResolve pins the -tls/-ca/-cert/-key semantics saebft-node
// and saebft-client share.
func TestTLSFlagsResolve(t *testing.T) {
	secure, err := GenerateConfig(DeployParams{TLSDir: filepath.Join(t.TempDir(), "certs")})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := GenerateConfig(DeployParams{})
	if err != nil {
		t.Fatal(err)
	}
	ca, cert, key, ok := secure.TLSPaths(1000)
	if !ok || ca == "" || cert == "" || key == "" {
		t.Fatalf("TLS config has no paths for client 1000: %q %q %q", ca, cert, key)
	}
	for _, tc := range []struct {
		name              string
		cfg               *Config
		flags             TLSFlags
		ca, cert, key     string
		insecure, wantErr bool
	}{
		{name: "-tls=false forces plaintext", cfg: secure, flags: TLSFlags{TLSSet: true}, insecure: true},
		{name: "-tls=false beats explicit files", cfg: plain, flags: TLSFlags{TLSSet: true, CA: "a", Cert: "c", Key: "k"}, insecure: true},
		{name: "explicit files override the config", cfg: secure, flags: TLSFlags{CA: "a", Cert: "c", Key: "k"}, ca: "a", cert: "c", key: "k"},
		{name: "unset files fill in from the config", cfg: secure, flags: TLSFlags{Cert: "c"}, ca: ca, cert: "c", key: key},
		{name: "all files enable TLS without a tls section", cfg: plain, flags: TLSFlags{CA: "a", Cert: "c", Key: "k"}, ca: "a", cert: "c", key: "k"},
		{name: "partial files without a tls section", cfg: plain, flags: TLSFlags{Cert: "c"}, wantErr: true},
		{name: "bare -tls without material", cfg: plain, flags: TLSFlags{TLS: true, TLSSet: true}, wantErr: true},
		{name: "bare -tls follows the config's tls section", cfg: secure, flags: TLSFlags{TLS: true, TLSSet: true}},
		{name: "absent flags follow a TLS config", cfg: secure},
		{name: "absent flags follow a plaintext config", cfg: plain},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gca, gcert, gkey, insecure, err := tc.flags.Resolve(tc.cfg, 1000)
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, want error %v", err, tc.wantErr)
			}
			if gca != tc.ca || gcert != tc.cert || gkey != tc.key || insecure != tc.insecure {
				t.Errorf("Resolve = %q %q %q insecure=%v, want %q %q %q insecure=%v",
					gca, gcert, gkey, insecure, tc.ca, tc.cert, tc.key, tc.insecure)
			}
		})
	}
}

// freePortConfig rewrites every address in cfg to a kernel-assigned free
// loopback port so parallel test runs cannot collide.
func freePortConfig(t *testing.T, cfg *Config) {
	t.Helper()
	for k := range cfg.d.Addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cfg.d.Addrs[k] = ln.Addr().String()
		ln.Close()
	}
}

// TestTLSConfigDeployment exercises the full multi-process TLS path the
// cmd tools wrap: keygen-style cert minting into a directory, config
// round-trip through disk, per-node startup over mutual TLS, a dialed
// client, a node kill + restart mid-stream (reconnect proof), and
// rejection of impostor material.
func TestTLSConfigDeployment(t *testing.T) {
	dir := t.TempDir()
	cfg, err := GenerateConfig(DeployParams{
		Mode:          ModeSeparate,
		App:           "counter",
		Seed:          "saebft-tls-test",
		ThresholdBits: 512,
		TLSDir:        filepath.Join(dir, "certs"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.TLSEnabled() {
		t.Fatal("GenerateConfig with TLSDir did not record TLS material")
	}
	freePortConfig(t, cfg)

	// Round-trip through disk like a real deployment's config.
	path := filepath.Join(dir, "cluster.json")
	if err := cfg.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.TLSEnabled() {
		t.Fatal("TLS section lost in the config round-trip")
	}
	if ca, cert, key, ok := loaded.TLSPaths(0); !ok || ca == "" || cert == "" || key == "" {
		t.Fatalf("TLSPaths(0) = %q %q %q %v", ca, cert, key, ok)
	}

	ctx := context.Background()
	nodes, err := loaded.Nodes()
	if err != nil {
		t.Fatal(err)
	}
	running := make(map[int]*Node)
	defer func() {
		for _, n := range running {
			n.Close()
		}
	}()
	var execID int
	for _, ni := range nodes {
		if ni.Role == "client" {
			continue
		}
		if ni.Role == "execution" {
			execID = ni.ID
		}
		n, err := NewNode(loaded, ni.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start(ctx); err != nil {
			t.Fatalf("starting %s node %d: %v", ni.Role, ni.ID, err)
		}
		if !n.Secure() {
			t.Fatalf("node %d came up without TLS despite the config", ni.ID)
		}
		running[ni.ID] = n
	}

	cl, err := DialConfig(loaded, DialTimeout(20*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if reply, err := cl.Invoke(ctx, []byte("inc")); err != nil || string(reply) != "1" {
		t.Fatalf("inc over mTLS: %q, %v", reply, err)
	}

	// Kill one execution replica and keep working (g+1 of 2g+1 replies
	// still certify), then restart it over the same TLS material and keep
	// working — peers reconnect through the authenticated handshake path.
	running[execID].Close()
	delete(running, execID)
	if reply, err := cl.Invoke(ctx, []byte("inc")); err != nil || string(reply) != "2" {
		t.Fatalf("inc with one executor down: %q, %v", reply, err)
	}
	restarted, err := NewNode(loaded, execID)
	if err != nil {
		t.Fatal(err)
	}
	if err := restarted.Start(ctx); err != nil {
		t.Fatalf("restarting executor %d: %v", execID, err)
	}
	running[execID] = restarted
	if reply, err := cl.Invoke(ctx, []byte("inc")); err != nil || string(reply) != "3" {
		t.Fatalf("inc after executor restart: %q, %v", reply, err)
	}

	cs, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Link.Handshakes == 0 {
		t.Error("dialed handle recorded no authenticated handshakes")
	}
	// Release the client identities (and their listen ports) so the
	// impostor dials below can occupy them.
	cl.Close()

	// Impostor 1: a certificate bound to a different identity is refused
	// locally before it ever touches the network.
	ca, cert0, key0, _ := loaded.TLSPaths(0)
	cids, err := loaded.ClientIDs()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DialConfig(loaded, DialClients(cids[0]), DialTLS(ca, cert0, key0)); err == nil {
		t.Fatal("dialing with node 0's certificate as a client identity did not error")
	}

	// Impostor 2: material from a different cluster CA. The nodes must
	// refuse the handshake, so no operation can complete.
	foreignDir := filepath.Join(dir, "foreign-certs")
	foreign, err := GenerateConfig(DeployParams{
		Mode:          ModeSeparate,
		App:           "counter",
		Seed:          "saebft-tls-test", // same seed: protocol keys match, TLS CA does not
		ThresholdBits: 512,
		TLSDir:        foreignDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = foreign
	fca, fcert, fkey, _ := foreign.TLSPaths(cids[0])
	_ = fca
	imp, err := DialConfig(loaded,
		DialClients(cids[0]),
		DialTLS(ca, fcert, fkey), // trusts the real CA, presents a foreign cert
		DialTimeout(2*time.Second))
	if err != nil {
		t.Fatalf("impostor dial construction failed early (want rejection at handshake): %v", err)
	}
	defer imp.Close()
	if _, err := imp.Invoke(ctx, []byte("inc")); err == nil {
		t.Fatal("an impostor with a foreign-CA certificate completed an operation")
	}
	is, err := imp.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if is.Replies != 0 {
		t.Fatal("impostor assembled a certified reply")
	}
}
