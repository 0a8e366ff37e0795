// multiprocess: run a full deployment over real TCP on loopback — the same
// node wiring the saebft-node/saebft-client commands use across OS
// processes, here launched from one main for a self-contained demo.
//
// Every node gets its own TCP listener, its own runtime goroutine, and
// communicates only via sockets; nothing is shared in memory. The first
// half drives the one-line TCPTransport form — over mutual TLS, every link
// authenticated and encrypted with ephemeral per-node certificates; the
// second half does the same thing through an explicit config + minted
// certificate files + per-node Start + Dial, exactly what the command-line
// tools do across processes (see cmd/saebft-keygen and docs/DEPLOYMENT.md)
// — with durable storage: it stops EVERY node of the running cluster,
// restarts them from their data directories, and shows the service resume
// with its state intact. With real processes the equivalent is:
//
//	saebft-keygen -out cluster.json -tls -tls-dir certs
//	saebft-node -config cluster.json -id 0 -data-dir /var/lib/saebft
//	# ... one per identity, then: kill -9 them all, restart the same
//	# commands, and the cluster recovers (WAL replay + checkpoint restore).
//
//	go run ./examples/multiprocess
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"

	"repro/saebft"
)

func main() {
	ctx := context.Background()

	// --- Form 1: a mutual-TLS TCP cluster in one call -------------------
	// Ephemeral TLS mints an in-memory cluster CA and one certificate per
	// node at Start; every link is then TLS 1.3 with both ends
	// authenticated and bound to their node identity.
	cluster, err := saebft.NewCluster(
		saebft.WithMode(saebft.ModeSeparate),
		saebft.WithApp("kv"),
		saebft.WithTransport(saebft.TCPTransport()),
		saebft.WithTLS(saebft.TLSConfig{Ephemeral: true}),
		saebft.WithThresholdBits(512),
	)
	if err != nil {
		log.Fatal(err)
	}
	if err := cluster.Start(ctx); err != nil {
		log.Fatal(err)
	}
	client := cluster.Client()

	put := func(k, v string) {
		op, err := saebft.EncodeOp("kv", "put", k, v)
		if err != nil {
			log.Fatal(err)
		}
		reply, err := client.Invoke(ctx, op)
		if err != nil {
			log.Fatalf("put %s: %v", k, err)
		}
		fmt.Printf("put %-10s → %s\n", k, reply)
	}
	get := func(k string) {
		op, err := saebft.EncodeOp("kv", "get", k)
		if err != nil {
			log.Fatal(err)
		}
		reply, err := client.Invoke(ctx, op)
		if err != nil {
			log.Fatalf("get %s: %v", k, err)
		}
		fmt.Printf("get %-10s → %s\n", k, reply)
	}

	put("paper", "SOSP 2003")
	put("authors", "Yin, Martin, Venkataramani, Alvisi, Dahlin")
	get("paper")
	get("authors")
	if stats, err := cluster.Stats(); err == nil {
		fmt.Printf("link stats: %d authenticated handshakes, %d frames sent, %d rejects\n",
			stats.Link.Handshakes, stats.Link.FramesSent, stats.Link.AuthRejects+stats.Link.HandshakeFailures)
	}
	cluster.Close()
	fmt.Println("all operations certified by g+1 execution replicas over mutual-TLS TCP")

	// --- Form 2: explicit config + nodes + Dial (the cmd/ tool path) ----
	// GenerateConfig with TLSDir is what `saebft-keygen -tls` runs: it
	// mints a cluster CA plus per-identity certificate files and records
	// their paths in the config.
	certDir, err := os.MkdirTemp("", "saebft-multiprocess-certs-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(certDir)
	cfg, err := saebft.GenerateConfig(saebft.DeployParams{
		Mode:          saebft.ModeSeparate,
		App:           "counter",
		Seed:          "multiprocess-demo",
		ThresholdBits: 512,
		TLSDir:        certDir,
	})
	if err != nil {
		log.Fatal(err)
	}
	nodes, err := cfg.Nodes()
	if err != nil {
		log.Fatal(err)
	}
	// Swap the static port plan for free loopback ports so the demo never
	// collides with a busy port.
	for _, n := range nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		if err := cfg.SetAddr(n.ID, ln.Addr().String()); err != nil {
			log.Fatal(err)
		}
		ln.Close()
	}

	// Every node persists a WAL + checkpoint store under its own
	// <dataDir>/node-<id>; this is what `saebft-node -data-dir` wires up.
	dataDir, err := os.MkdirTemp("", "saebft-multiprocess-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dataDir)

	startAll := func() []*saebft.Node {
		var running []*saebft.Node
		for _, ni := range nodes {
			if ni.Role == "client" {
				continue
			}
			n, err := saebft.NewNode(cfg, ni.ID, saebft.NodeDataDir(dataDir))
			if err != nil {
				log.Fatal(err)
			}
			if err := n.Start(ctx); err != nil {
				log.Fatalf("node %d: %v", ni.ID, err)
			}
			running = append(running, n)
			link := "tcp"
			if n.Secure() {
				link = "mTLS"
			}
			fmt.Printf("started %-9s node %-4d on %s (%s)\n", n.Role(), n.ID(), n.Addr(), link)
		}
		return running
	}
	running := startAll()

	// Write the descriptor out and dial it by path — byte-for-byte what
	// `saebft-client -config cluster.json` does from another process.
	cfgPath := filepath.Join(dataDir, "cluster.json")
	if err := cfg.Save(cfgPath); err != nil {
		log.Fatal(err)
	}
	dialed, err := saebft.Dial(cfgPath)
	if err != nil {
		log.Fatal(err)
	}
	for _, op := range []string{"inc", "add 41"} {
		reply, err := dialed.Invoke(ctx, []byte(op))
		if err != nil {
			log.Fatalf("%s: %v", op, err)
		}
		fmt.Printf("%-8s → %s\n", op, reply)
	}
	// Read-only operations can skip the agreement round entirely: the
	// execution replicas answer directly, and g+1 matching attested answers
	// at the session watermark certify the result (read-your-writes with
	// respect to the invokes above).
	reply, err := dialed.ReadCertified(ctx, []byte("get"))
	if err != nil {
		log.Fatalf("get: %v", err)
	}
	fmt.Printf("%-8s → %s (certified fast read)\n", "get", reply)
	dialed.Close()

	// --- Full-cluster restart: stop every node, bring them all back ----
	// from their data directories. The counter resumes at 42 — nothing
	// acknowledged is lost, nothing is executed twice.
	fmt.Println("stopping every node (full-cluster outage)...")
	for _, n := range running {
		n.Close()
	}
	fmt.Println("restarting all nodes from their data directories...")
	running = startAll()
	defer func() {
		for _, n := range running {
			n.Close()
		}
	}()
	// DialConfig is the same surface for a descriptor already in memory.
	dialed, err = saebft.DialConfig(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer dialed.Close()
	for _, op := range []string{"get", "inc"} {
		reply, err := dialed.Invoke(ctx, []byte(op))
		if err != nil {
			log.Fatalf("%s after restart: %v", op, err)
		}
		fmt.Printf("%-8s → %s (post-recovery)\n", op, reply)
	}
	fmt.Println("state survived a restart of every node in the deployment — over mutual TLS throughout")
}
