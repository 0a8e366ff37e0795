package saebft

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

// metricSum folds every sample of one series across its labels (nodes,
// phases, peers).
func metricSum(ms []Metric, name string) float64 {
	var sum float64
	for _, m := range ms {
		if m.Name == name {
			sum += m.Value
		}
	}
	return sum
}

// TestMetricsAcrossLayers drives a durable sim cluster through writes and a
// certified read, then asserts every layer left its fingerprints in the one
// shared registry: agreement, execution, durable storage, and the client
// path — plus lifecycle spans in the trace ring.
func TestMetricsAcrossLayers(t *testing.T) {
	c := startSim(t,
		WithMode(ModeSeparate),
		WithApp("kv"),
		WithClients(2),
		WithDataDir(t.TempDir()),
	)
	ctx := context.Background()
	cl := c.Client()
	for i := 0; i < 5; i++ {
		put, err := EncodeOp("kv", "put", fmt.Sprintf("k%d", i), "v")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Invoke(ctx, put); err != nil {
			t.Fatal(err)
		}
	}
	get, _ := EncodeOp("kv", "get", "k0")
	if _, err := cl.ReadCertified(ctx, get); err != nil {
		t.Fatal(err)
	}

	ms := c.Metrics()
	for _, name := range []string{
		"saebft_pbft_batches_total",       // agreement
		"saebft_pbft_phase_seconds_count", // agreement phase histograms
		"saebft_exec_batches_total",       // execution
		"saebft_wal_fsync_seconds_count",  // durable storage
		"saebft_client_reads_total",       // client read path
	} {
		if metricSum(ms, name) == 0 {
			t.Errorf("%s = 0, want > 0", name)
		}
	}
	if w := metricSum(ms, "saebft_client_pipeline_width"); w != 2 {
		t.Errorf("client pipeline width = %v, want 2", w)
	}

	stages := make(map[string]bool)
	for _, s := range c.Trace() {
		stages[s.Stage] = true
	}
	for _, stage := range []string{"submit", "pre_prepare", "prepared", "committed", "executed", "apply", "reply"} {
		if !stages[stage] {
			t.Errorf("trace ring has no %q span (got %v)", stage, stages)
		}
	}
}

// TestViewChangeMovesMetrics crashes the view-0 primary under load and
// asserts the agreement metrics observe the forced view change: the
// campaign counter and duration histogram move, the view gauge advances,
// and the phase histograms keep filling in the new view.
func TestViewChangeMovesMetrics(t *testing.T) {
	c := startSim(t, WithMode(ModeSeparate), WithApp("counter"), WithClients(2))
	ctx := context.Background()
	cl := c.Client()
	if _, err := cl.Invoke(ctx, []byte("inc")); err != nil {
		t.Fatal(err)
	}
	before := c.Metrics()
	if n := metricSum(before, "saebft_pbft_view_changes_total"); n != 0 {
		t.Fatalf("view changes before crash = %v, want 0", n)
	}
	phasesBefore := metricSum(before, "saebft_pbft_phase_seconds_count")

	if err := c.CrashAgreement(0); err != nil {
		t.Fatal(err)
	}
	if reply, err := cl.Invoke(ctx, []byte("inc")); err != nil {
		t.Fatalf("inc after primary crash: %v", err)
	} else if string(reply) != "2" {
		t.Fatalf("counter = %q, want 2", reply)
	}

	after := c.Metrics()
	if n := metricSum(after, "saebft_pbft_view_changes_total"); n < 1 {
		t.Errorf("view changes after crash = %v, want >= 1", n)
	}
	// Each surviving replica installs view 1: the per-node gauge peaks at 1.
	var maxView float64
	for _, m := range after {
		if m.Name == "saebft_pbft_view" && m.Value > maxView {
			maxView = m.Value
		}
	}
	if maxView < 1 {
		t.Errorf("max saebft_pbft_view = %v, want >= 1", maxView)
	}
	if n := metricSum(after, "saebft_pbft_view_change_seconds_count"); n < 1 {
		t.Errorf("view-change duration observations = %v, want >= 1", n)
	}
	if pa := metricSum(after, "saebft_pbft_phase_seconds_count"); pa <= phasesBefore {
		t.Errorf("phase histogram count %v did not move past %v across the view change", pa, phasesBefore)
	}
	vcStages := 0
	for _, s := range c.Trace() {
		if s.Stage == "view_change" || s.Stage == "new_view" {
			vcStages++
		}
	}
	if vcStages == 0 {
		t.Error("trace ring recorded no view_change/new_view spans")
	}
}

// fetch GETs a URL and returns the body.
func fetch(t *testing.T, url string) (string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(body), resp.Header
}

// TestClusterOpsEndpoint serves a whole cluster's registry over HTTP and
// checks the exposition, the trace dump, and — after Close — that the ops
// server leaks no goroutines.
func TestClusterOpsEndpoint(t *testing.T) {
	start := runtime.NumGoroutine()
	c, err := NewCluster(
		WithApp("counter"),
		WithClients(2),
		WithMetricsAddr("127.0.0.1:0"),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			c.Close()
		}
	}()
	if _, err := c.Client().Invoke(context.Background(), []byte("inc")); err != nil {
		t.Fatal(err)
	}

	addr := c.OpsAddr()
	if addr == "" {
		t.Fatal("OpsAddr empty after Start")
	}
	body, hdr := fetch(t, "http://"+addr+"/metrics")
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text v0.0.4", ct)
	}
	for _, want := range []string{
		"# TYPE saebft_pbft_batches_total counter",
		"saebft_pbft_phase_seconds_bucket",
		"saebft_exec_batches_total",
		"saebft_client_in_flight",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	traceBody, _ := fetch(t, "http://"+addr+"/debug/trace")
	var dump struct {
		Total uint64            `json:"total"`
		Spans []json.RawMessage `json:"spans"`
	}
	if err := json.Unmarshal([]byte(traceBody), &dump); err != nil {
		t.Fatalf("/debug/trace is not JSON: %v", err)
	}
	if dump.Total == 0 || len(dump.Spans) == 0 {
		t.Errorf("/debug/trace empty: total=%d spans=%d", dump.Total, len(dump.Spans))
	}

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	closed = true
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("ops endpoint still serving after Close")
	}
	// The ops server (and the cluster) must wind all goroutines down.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > start {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d at start, %d after Close", start, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestNodeOpsEndpoint runs a multi-process-style deployment in one test
// binary, scrapes an agreement node and an execution node, and checks each
// role serves its own layers (protocol + storage + links) the way the CI
// metrics-smoke job does against real processes.
func TestNodeOpsEndpoint(t *testing.T) {
	cfg, err := GenerateConfig(DeployParams{
		Mode:          ModeSeparate,
		App:           "counter",
		Seed:          "saebft-obs-test",
		ThresholdBits: 512,
		BasePort:      0,
	})
	if err != nil {
		t.Fatal(err)
	}
	assignPorts(t, cfg)
	ctx := context.Background()
	byRole := make(map[string]*Node)
	for _, n := range startNodes(t, cfg, func() []NodeOption {
		return []NodeOption{NodeMetricsAddr("127.0.0.1:0"), NodeDataDir(t.TempDir())}
	}) {
		byRole[n.Role()] = n
	}
	cl, err := DialConfig(cfg, DialTimeout(20*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Invoke(ctx, []byte("inc")); err != nil {
		t.Fatal(err)
	}

	agreeBody, _ := fetch(t, "http://"+byRole["agreement"].OpsAddr()+"/metrics")
	for _, want := range []string{"saebft_pbft_batches_total", "saebft_wal_fsync_seconds_count", "saebft_link_frames_sent_total"} {
		if !strings.Contains(agreeBody, want) {
			t.Errorf("agreement /metrics missing %q", want)
		}
	}
	execBody, _ := fetch(t, "http://"+byRole["execution"].OpsAddr()+"/metrics")
	for _, want := range []string{"saebft_exec_batches_total", "saebft_link_frames_received_total"} {
		if !strings.Contains(execBody, want) {
			t.Errorf("execution /metrics missing %q", want)
		}
	}

	// The dialed handle's own registry carries the client path plus its
	// endpoints' link series.
	ms := cl.Metrics()
	if metricSum(ms, "saebft_link_frames_sent_total") == 0 {
		t.Error("dialed handle has no link series")
	}
	if metricSum(ms, "saebft_client_pipeline_width") == 0 {
		t.Error("dialed handle has no client series")
	}
}
