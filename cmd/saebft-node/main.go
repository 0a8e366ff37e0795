// Command saebft-node runs one replica — agreement, execution, or privacy
// firewall filter — as its own OS process, communicating over TCP with the
// rest of the deployment described by the shared config file.
//
//	saebft-node -config cluster.json -id 0
//
// The node's role is determined by its identity in the config topology. The
// process runs until interrupted.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/saebft"
)

func main() {
	var (
		cfgPath       = flag.String("config", "cluster.json", "cluster config file (from saebft-keygen)")
		id            = flag.Int("id", -1, "node identity to run")
		dataDir       = flag.String("data-dir", "", "durable storage root; the node persists its WAL and checkpoints under <data-dir>/node-<id> and recovers from them on restart (empty = in-memory)")
		volatileVotes = flag.Bool("volatile-votes", false, "skip agreement voting-state durability (votes, prepared certificates, view transitions): fewer WAL syncs, but a replica recovering under a Byzantine primary counts against f until rejoined")
		verbose       = flag.Bool("verbose", false, "log transport-level connection events")
		useTLS        = flag.Bool("tls", false, "require mutual-TLS links; -tls=false forces plaintext. Default: follow the config (TLS exactly when it has a tls section)")
		caFile        = flag.String("ca", "", "cluster CA certificate (PEM); default: the config's tls.ca")
		certFile      = flag.String("cert", "", "this node's certificate (PEM); default: <tls.certDir>/node-<id>.pem from the config")
		keyFile       = flag.String("key", "", "this node's private key (PEM); default: <tls.certDir>/node-<id>-key.pem from the config")
		statsEvery    = flag.Duration("stats-every", 0, "log a metrics heartbeat (protocol, storage, and link series from the node's registry) at this interval (0 = off); see docs/DEPLOYMENT.md troubleshooting")
		metricsAddr   = flag.String("metrics-addr", "", "serve the ops HTTP endpoint on this address: Prometheus text on /metrics, the trace ring on /debug/trace, pprof under /debug/pprof/ (empty = off); bind it operator-side, not publicly")
		verifyWorkers = flag.Int("verify-workers", 0, "fan batch certificate checks (client requests, order/commit certificates) out over this many workers; 0 or 1 verifies inline. Per-process tuning — nodes need not agree. The agreement-vote crypto mode itself lives in the shared config (crypto: \"mac\" or \"ed25519\")")
	)
	flag.Parse()
	if *id < 0 {
		fmt.Fprintln(os.Stderr, "saebft-node: -id is required")
		os.Exit(2)
	}
	cfg, err := saebft.LoadConfig(*cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "saebft-node:", err)
		os.Exit(1)
	}
	var nodeOpts []saebft.NodeOption
	if *dataDir != "" {
		nodeOpts = append(nodeOpts, saebft.NodeDataDir(*dataDir))
		if *volatileVotes {
			nodeOpts = append(nodeOpts, saebft.NodeVolatileVotes())
		}
	}
	tlsOpts, err := tlsOptions(cfg, *id, *useTLS, tlsFlagSet(), *caFile, *certFile, *keyFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "saebft-node:", err)
		os.Exit(1)
	}
	nodeOpts = append(nodeOpts, tlsOpts...)
	if *metricsAddr != "" {
		nodeOpts = append(nodeOpts, saebft.NodeMetricsAddr(*metricsAddr))
	}
	if *verifyWorkers > 1 {
		nodeOpts = append(nodeOpts, saebft.NodeVerifyWorkers(*verifyWorkers))
	}
	node, err := saebft.NewNode(cfg, *id, nodeOpts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "saebft-node:", err)
		os.Exit(1)
	}
	if *verbose {
		node.SetLogf(log.Printf)
	}

	// Signal-driven graceful shutdown: SIGINT/SIGTERM cancel the context
	// rather than killing the process mid-write, so Close can flush the
	// WAL and close the transports. A second signal (the context is no
	// longer intercepting after stop) kills the process the hard way —
	// which durable nodes survive too, by recovering on the next start.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := node.Start(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "saebft-node:", err)
		os.Exit(1)
	}
	durability := "in-memory"
	if *dataDir != "" {
		durability = "durable: " + *dataDir
	}
	links := "plaintext links"
	if node.Secure() {
		links = "mutual-TLS links"
	}
	fmt.Printf("saebft-node: %s replica %d listening on %s (%s/%s, %s, %s)\n",
		node.Role(), node.ID(), node.Addr(), cfg.Mode(), cfg.App(), durability, links)
	if addr := node.OpsAddr(); addr != "" {
		fmt.Printf("saebft-node: ops endpoint on http://%s (/metrics, /debug/trace, /debug/pprof/)\n", addr)
	}

	if *statsEvery > 0 {
		go func() {
			for {
				select {
				case <-ctx.Done():
					return
				case <-time.After(*statsEvery):
				}
				log.Printf("saebft-node: %s", statsLine(node))
			}
		}()
	}

	// A replica whose store fails stops executing (fail-stop) but keeps
	// its sockets open; poll and say so loudly instead of hanging mute.
	if *dataDir != "" {
		go func() {
			for {
				select {
				case <-ctx.Done():
					return
				case <-time.After(5 * time.Second):
				}
				if err := node.StorageErr(); err != nil {
					log.Printf("saebft-node: STORAGE FAILURE, replica halted (fail-stop): %v", err)
					return
				}
			}
		}()
	}

	<-ctx.Done()
	stop() // restore default signal handling: a second signal force-kills
	fmt.Println("saebft-node: shutting down (flushing WAL and checkpoints)")
	node.Close()
}

// statsLine renders the operator heartbeat from the node's metrics
// registry — the same series /metrics serves, so the log line and a scrape
// can never disagree. Series absent for the node's role are skipped;
// per-peer and per-phase labels are summed away.
func statsLine(node *saebft.Node) string {
	keys := []string{
		"saebft_pbft_batches_total",
		"saebft_pbft_requests_total",
		"saebft_pbft_view",
		"saebft_pbft_view_changes_total",
		"saebft_exec_batches_total",
		"saebft_exec_requests_total",
		"saebft_exec_reads_served_total",
		"saebft_wal_fsync_seconds_count",
		"saebft_wal_segments",
		"saebft_link_frames_sent_total",
		"saebft_link_frames_received_total",
		"saebft_link_frames_dropped_total",
		"saebft_link_reconnects_total",
		"saebft_link_auth_rejects_total",
	}
	totals := make(map[string]float64)
	for _, m := range node.Metrics() {
		totals[m.Name] += m.Value
	}
	var b strings.Builder
	for _, name := range keys {
		v, ok := totals[name]
		if !ok {
			continue
		}
		short := strings.TrimSuffix(strings.TrimPrefix(name, "saebft_"), "_total")
		fmt.Fprintf(&b, " %s=%.0f", short, v)
	}
	return strings.TrimSpace(b.String())
}

// tlsFlagSet reports whether -tls was given explicitly (so -tls=false can
// force plaintext while an absent flag follows the config).
func tlsFlagSet() bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "tls" {
			set = true
		}
	})
	return set
}

// tlsOptions maps the shared saebft.TLSFlags resolution onto node
// options.
func tlsOptions(cfg *saebft.Config, id int, useTLS, tlsSet bool, ca, cert, key string) ([]saebft.NodeOption, error) {
	flags := saebft.TLSFlags{TLS: useTLS, TLSSet: tlsSet, CA: ca, Cert: cert, Key: key}
	rca, rcert, rkey, insecure, err := flags.Resolve(cfg, id)
	switch {
	case err != nil:
		return nil, err
	case insecure:
		return []saebft.NodeOption{saebft.NodeInsecure()}, nil
	case rca != "":
		return []saebft.NodeOption{saebft.NodeTLS(rca, rcert, rkey)}, nil
	default:
		return nil, nil // config-driven: TLS exactly when the config prescribes it
	}
}
