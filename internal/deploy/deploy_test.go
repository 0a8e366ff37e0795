package deploy

import (
	"net"
	"path/filepath"
	"strconv"
	"testing"
)

// freePorts reserves n distinct loopback ports by binding and releasing.
func freePorts(t *testing.T, n int) []int {
	t.Helper()
	ports := make([]int, 0, n)
	listeners := make([]net.Listener, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners = append(listeners, ln)
		ports = append(ports, ln.Addr().(*net.TCPAddr).Port)
	}
	for _, ln := range listeners {
		ln.Close()
	}
	return ports
}

func testConfig(t *testing.T, mode string) *Config {
	t.Helper()
	cfg, err := Default(mode, "kv", 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ThresholdBits = 512 // keep key dealing fast in tests
	ports := freePorts(t, len(cfg.Addrs))
	i := 0
	for k := range cfg.Addrs {
		cfg.Addrs[k] = "127.0.0.1:" + strconv.Itoa(ports[i])
		i++
	}
	return cfg
}

func TestConfigSaveLoadRoundTrip(t *testing.T) {
	cfg := testConfig(t, "separate")
	path := filepath.Join(t.TempDir(), "cluster.json")
	if err := cfg.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Seed != cfg.Seed || loaded.Mode != cfg.Mode || len(loaded.Addrs) != len(cfg.Addrs) {
		t.Errorf("round trip mismatch: %+v vs %+v", loaded, cfg)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("Load of missing file succeeded")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Default("bogus", "kv", 0); err == nil {
		t.Error("Default accepted unknown mode")
	}
	cfg := &Config{Mode: "separate", App: "bogus"}
	if _, err := cfg.AppFactory(); err == nil {
		t.Error("AppFactory accepted unknown app")
	}
	cfg = &Config{Mode: "separate", ReplyMode: "bogus"}
	if _, err := cfg.Options(); err == nil {
		t.Error("Options accepted unknown reply mode")
	}
}

func TestStartNodeRejectsUnknownID(t *testing.T) {
	cfg := testConfig(t, "separate")
	if _, err := StartNode(cfg, 9999); err == nil {
		t.Error("StartNode accepted an identity outside the topology")
	}
	if _, err := StartNode(cfg, 1000); err == nil {
		t.Error("StartNode accepted a client identity")
	}
}
