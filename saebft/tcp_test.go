package saebft

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// TestTCPLoopbackRoundTrip runs a full separated deployment over real
// loopback TCP sockets and drives a put/get round trip through the public
// handle.
func TestTCPLoopbackRoundTrip(t *testing.T) {
	c, err := NewCluster(
		WithMode(ModeSeparate),
		WithApp("kv"),
		WithClients(2),
		WithTransport(TCPTransport()),
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
	put, err := EncodeOp("kv", "put", "transport", "tcp")
	if err != nil {
		t.Fatal(err)
	}
	if reply, err := cl.Invoke(ctx, put); err != nil {
		t.Fatalf("put over TCP: %v", err)
	} else if string(reply) != "OK" {
		t.Fatalf("put reply = %q", reply)
	}
	get, _ := EncodeOp("kv", "get", "transport")
	reply, err := cl.Invoke(ctx, get)
	if err != nil {
		t.Fatalf("get over TCP: %v", err)
	}
	if !bytes.Equal(reply, []byte("tcp")) {
		t.Fatalf("get reply = %q, want tcp", reply)
	}

	// Pipelined async invocations work over TCP too.
	a := cl.InvokeAsync(ctx, put)
	b := cl.InvokeAsync(ctx, get)
	if res := <-a; res.Err != nil {
		t.Fatalf("async put: %v", res.Err)
	}
	if res := <-b; res.Err != nil {
		t.Fatalf("async get: %v", res.Err)
	}
}

// TestTCPFirewallRoundTrip runs the full privacy-firewall topology —
// agreement, filter grid, execution — over loopback TCP sockets.
func TestTCPFirewallRoundTrip(t *testing.T) {
	c, err := NewCluster(
		WithMode(ModeFirewall),
		WithApp("kv"),
		WithClients(1),
		WithTransport(TCPTransport()),
		WithThresholdBits(512),
		WithInvokeTimeout(30*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	put, _ := EncodeOp("kv", "put", "sealed", "body")
	if reply, err := c.Client().Invoke(ctx, put); err != nil || string(reply) != "OK" {
		t.Fatalf("put through firewall over TCP: %q, %v", reply, err)
	}
	get, _ := EncodeOp("kv", "get", "sealed")
	reply, err := c.Client().Invoke(ctx, get)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reply, []byte("body")) {
		t.Fatalf("get reply = %q, want body", reply)
	}
	if _, err := c.Stats(); err != nil {
		t.Fatal(err)
	}
}

// TestMultiProcessConfigDeployment exercises the config → NewNode →
// DialConfig path that the saebft-node / saebft-client commands wrap, in the
// separated and the privacy-firewall topology: every replica runs on its own
// listener (here in one process) and a dialed handle talks to them over TCP.
func TestMultiProcessConfigDeployment(t *testing.T) {
	for _, mode := range []Mode{ModeSeparate, ModeFirewall} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg, err := GenerateConfig(DeployParams{
				Mode:          mode,
				App:           "counter",
				Seed:          "saebft-test-seed",
				ThresholdBits: 512,
				BasePort:      0, // overwritten below with free ports
			})
			if err != nil {
				t.Fatal(err)
			}
			assignPorts(t, cfg)

			// The config round-trips through disk like a real deployment's.
			path := filepath.Join(t.TempDir(), "cluster.json")
			if err := cfg.Save(path); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadConfig(path)
			if err != nil {
				t.Fatal(err)
			}
			if loaded.App() != "counter" || loaded.Mode() != mode {
				t.Fatalf("loaded config disagrees: app=%q mode=%v", loaded.App(), loaded.Mode())
			}
			// Only client identities dial; replica 0 runs as a node.
			if _, err := DialConfig(loaded, DialClients(0)); err == nil {
				t.Fatal("DialConfig accepted a replica identity")
			}

			roundTrip(t, loaded)
		})
	}
}

func roundTrip(t *testing.T, cfg *Config) {
	t.Helper()
	ctx := context.Background()
	startNodes(t, cfg, nil)

	cl, err := DialConfig(cfg, DialTimeout(20*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if reply, err := cl.Invoke(ctx, []byte("inc")); err != nil {
		t.Fatalf("inc: %v", err)
	} else if string(reply) != "1" {
		t.Fatalf("inc reply = %q, want 1", reply)
	}
	op, err := EncodeOp("counter", "add", "41")
	if err != nil {
		t.Fatal(err)
	}
	if reply, err := cl.Invoke(ctx, op); err != nil {
		t.Fatalf("add: %v", err)
	} else if string(reply) != "42" {
		t.Fatalf("add reply = %q, want 42", reply)
	}
}

// portBlock counts the port blocks assignPorts has handed out.
var portBlock atomic.Uint32

// assignPorts rewrites every address in cfg to a block of consecutive
// loopback ports in 30000–32767: below the kernel's ephemeral range, so no
// outbound connection can take one as its source port before its node binds
// it, and above the benchmark's blocks (10000–29199). Each test binary owns
// a region of four blocks chosen by its pid, so concurrent binaries rarely
// collide, and each call takes the region's next block, so a retry after
// EADDRINUSE gets fresh ports.
func assignPorts(t *testing.T, cfg *Config) {
	t.Helper()
	const first, block, region = 30000, 16, 4 * 16
	if len(cfg.d.Addrs) > block {
		t.Fatalf("config has %d addresses, more than a block of %d ports", len(cfg.d.Addrs), block)
	}
	port := first + os.Getpid()%((32768-first)/region)*region + int(portBlock.Add(1)%4)*block
	for k := range cfg.d.Addrs {
		cfg.d.Addrs[k] = net.JoinHostPort("127.0.0.1", strconv.Itoa(port))
		port++
	}
}

// startNodes runs every replica of cfg in this process until the test ends,
// each with the options opts returns (opts may be nil), and returns them in
// cfg.Nodes order. A port another process holds fails the start with
// EADDRINUSE; then the ports are assigned again and every node starts over.
func startNodes(t *testing.T, cfg *Config, opts func() []NodeOption) []*Node {
	t.Helper()
	infos, err := cfg.Nodes()
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 1; ; attempt++ {
		var running []*Node
		err := func() error {
			for _, ni := range infos {
				if ni.Role == "client" {
					continue
				}
				var nopts []NodeOption
				if opts != nil {
					nopts = opts()
				}
				n, err := NewNode(cfg, ni.ID, nopts...)
				if err != nil {
					return err
				}
				if err := n.Start(context.Background()); err != nil {
					return fmt.Errorf("starting %s node %d: %w", ni.Role, ni.ID, err)
				}
				running = append(running, n)
			}
			return nil
		}()
		if err == nil {
			t.Cleanup(func() {
				for _, n := range running {
					n.Close()
				}
			})
			return running
		}
		for _, n := range running {
			n.Close()
		}
		if attempt == 3 || !errors.Is(err, syscall.EADDRINUSE) {
			t.Fatal(err)
		}
		assignPorts(t, cfg)
	}
}
