package saebft

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestConfigSaveLoadRoundTrip(t *testing.T) {
	cfg, err := GenerateConfig(DeployParams{Mode: ModeFirewall, App: "counter", Seed: "round-trip", Crypto: "mac"})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "cluster.json")
	if err := cfg.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Seed() != "round-trip" || loaded.Mode() != ModeFirewall || loaded.App() != "counter" {
		t.Errorf("loaded seed/mode/app = %q/%v/%q", loaded.Seed(), loaded.Mode(), loaded.App())
	}
	want, _ := cfg.Nodes()
	got, err := loaded.Nodes()
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("loaded Nodes() = %v, %v; want %v", got, err, want)
	}
	again := filepath.Join(dir, "again.json")
	if err := loaded.Save(again); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(path)
	b, _ := os.ReadFile(again)
	if !bytes.Equal(a, b) {
		t.Errorf("save → load → save changed the file:\n%s\nvs\n%s", a, b)
	}
	if _, err := LoadConfig(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("LoadConfig of a missing file succeeded")
	}
}

// writeDescriptor saves a valid generated descriptor for mode, lets edit
// change its JSON form, and writes the result to a fresh file.
func writeDescriptor(t *testing.T, mode Mode, edit func(d map[string]interface{}, addrs map[string]interface{})) string {
	t.Helper()
	cfg, err := GenerateConfig(DeployParams{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cluster.json")
	if err := cfg.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var d map[string]interface{}
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	edit(d, d["addrs"].(map[string]interface{}))
	if data, err = json.Marshal(d); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestConfigValidation: LoadConfig refuses every descriptor a node could
// not run from, naming the offending field — including an address table
// that misses a peer, which would otherwise only show up as frames
// silently dropped at run time.
func TestConfigValidation(t *testing.T) {
	type edit = func(d, addrs map[string]interface{})
	for _, tc := range []struct {
		name string
		mode Mode
		edit edit
		want string
	}{
		{"unknown mode", ModeSeparate, func(d, _ map[string]interface{}) { d["mode"] = "bogus" }, `unknown mode "bogus"`},
		{"unknown reply mode", ModeSeparate, func(d, _ map[string]interface{}) { d["replyMode"] = "bogus" }, `unknown reply mode "bogus"`},
		{"unknown crypto", ModeSeparate, func(d, _ map[string]interface{}) { d["crypto"] = "rsa" }, `unknown crypto mode "rsa"`},
		{"unknown app", ModeSeparate, func(d, _ map[string]interface{}) { d["app"] = "bogus" }, `unknown app "bogus"`},
		{"invalid topology", ModeSeparate, func(d, _ map[string]interface{}) { d["f"] = -1 }, "agreement cluster must have"},
		{"non-decimal addrs key", ModeSeparate, func(_, a map[string]interface{}) { a["zero"] = "127.0.0.1:1" }, `bad node id "zero"`},
		{"addrs key outside the topology", ModeSeparate, func(_, a map[string]interface{}) { a["9999"] = "127.0.0.1:1" }, "node 9999, which is not part of the topology"},
		{"missing peer address", ModeSeparate, func(_, a map[string]interface{}) { delete(a, "101") }, "no address for execution 101"},
		{"empty peer address", ModeSeparate, func(_, a map[string]interface{}) { a["2"] = "" }, "no address for agreement 2"},
		{"missing filter address", ModeFirewall, func(_, a map[string]interface{}) { delete(a, "233") }, "no address for filter 233"},
		{"missing client address", ModeSeparate, func(_, a map[string]interface{}) { delete(a, "1001") }, "no address for client 1001"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadConfig(writeDescriptor(t, tc.mode, tc.edit))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("LoadConfig error = %v, want one containing %q", err, tc.want)
			}
		})
	}

	// BASE mode runs no execution replicas, so their addresses are optional.
	path := writeDescriptor(t, ModeBase, func(_, a map[string]interface{}) {
		delete(a, "100")
		delete(a, "101")
		delete(a, "102")
	})
	if _, err := LoadConfig(path); err != nil {
		t.Errorf("BASE descriptor without executor addresses: %v", err)
	}

	if _, err := GenerateConfig(DeployParams{Crypto: "rsa"}); err == nil {
		t.Error("GenerateConfig accepted an unknown crypto mode")
	}
	if _, err := GenerateConfig(DeployParams{App: "bogus"}); err == nil {
		t.Error("GenerateConfig accepted an unknown app")
	}
}

func TestNewNodeRejectsUnknownID(t *testing.T) {
	cfg, err := GenerateConfig(DeployParams{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewNode(cfg, 9999); err == nil {
		t.Error("NewNode accepted an identity outside the topology")
	}
	if _, err := NewNode(cfg, 1000); err == nil {
		t.Error("NewNode accepted a client identity")
	}
}

// TestTLSOverrideNeedsAllFiles: a node or dialed handle given only part of
// its TLS material refuses to start rather than guessing the rest.
func TestTLSOverrideNeedsAllFiles(t *testing.T) {
	cfg, err := GenerateConfig(DeployParams{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(cfg, 0, NodeTLS("ca.pem", "", ""))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(context.Background()); err == nil || !strings.Contains(err.Error(), "needs all of CA, cert, and key") {
		n.Close()
		t.Errorf("Start with a partial TLS override: %v", err)
	}
	if cl, err := DialConfig(cfg, DialClients(1000), DialTLS("", "node-1000.pem", "")); err == nil || !strings.Contains(err.Error(), "needs all of CA, cert, and key") {
		if cl != nil {
			cl.Close()
		}
		t.Errorf("DialConfig with a partial TLS override: %v", err)
	}
}

// TestLegacyDescriptorLoads: testdata/legacy-cluster.json was written by
// `saebft-keygen -seed legacy -port 7000` while descriptors still carried
// the request/order MAC keys. It still loads with the same identities, and
// saving it again drops the two keys.
func TestLegacyDescriptorLoads(t *testing.T) {
	cfg, err := LoadConfig(filepath.Join("testdata", "legacy-cluster.json"))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed() != "legacy" || cfg.Mode() != ModeSeparate || cfg.App() != "kv" {
		t.Errorf("seed/mode/app = %q/%v/%q", cfg.Seed(), cfg.Mode(), cfg.App())
	}
	nodes, err := cfg.Nodes()
	if err != nil {
		t.Fatal(err)
	}
	want := []NodeInfo{
		{0, "agreement", "127.0.0.1:7000"},
		{1, "agreement", "127.0.0.1:7001"},
		{2, "agreement", "127.0.0.1:7002"},
		{3, "agreement", "127.0.0.1:7003"},
		{100, "execution", "127.0.0.1:7004"},
		{101, "execution", "127.0.0.1:7005"},
		{102, "execution", "127.0.0.1:7006"},
		{1000, "client", "127.0.0.1:7007"},
		{1001, "client", "127.0.0.1:7008"},
	}
	if !reflect.DeepEqual(nodes, want) {
		t.Errorf("Nodes() = %v, want %v", nodes, want)
	}
	if ids, err := cfg.ClientIDs(); err != nil || !reflect.DeepEqual(ids, []int{1000, 1001}) {
		t.Errorf("ClientIDs() = %v, %v", ids, err)
	}
	path := filepath.Join(t.TempDir(), "cluster.json")
	if err := cfg.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(`"mac`)) {
		t.Errorf("re-saved legacy descriptor still carries a MAC key:\n%s", data)
	}
}
