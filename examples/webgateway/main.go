// webgateway: an HTTP front end for a replicated key-value service,
// demonstrating the certified fast read path on a read-heavy workload.
//
// Writes (PUT/DELETE) go through full BFT agreement via Invoke. Reads (GET)
// are served by Client.ReadCertified: the execution replicas answer directly
// from applied state, and g+1 matching attested answers certify the result
// without an agreement round — an order of magnitude cheaper, which is what
// a web tier serving mostly GETs wants. When a read cannot certify (the
// operation is not read-only, replicas lag, or answers diverge) it falls
// back to full agreement transparently, so the gateway never serves an
// uncertified byte.
//
// Read-your-writes across HTTP requests rides the session watermark: every
// response carries X-Saebft-Watermark, and a caller that echoes the header
// back gets a session floored at its own last write — even if its requests
// land on different gateway processes in a real deployment.
//
//	go run ./examples/webgateway            # serve on 127.0.0.1:8080
//	go run ./examples/webgateway -demo      # self-driving smoke run
//
//	curl -X PUT  -d sosp2003 localhost:8080/kv/paper
//	curl               localhost:8080/kv/paper
//	curl               localhost:8080/stats
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/saebft"
)

// watermarkHeader transfers the session floor between gateway and caller.
const watermarkHeader = "X-Saebft-Watermark"

// gateway serves one replicated kv service over HTTP.
type gateway struct {
	client *saebft.Client
}

// sessionFor derives the read-your-writes session for one request: the
// handle's implicit session, advanced to whatever watermark the caller
// proved it has already observed.
func (g *gateway) sessionFor(r *http.Request) *saebft.Session {
	s := g.client.Session()
	if wm, err := strconv.ParseUint(r.Header.Get(watermarkHeader), 10, 64); err == nil {
		s.AdvanceTo(wm)
	}
	return s
}

func (g *gateway) handleKV(w http.ResponseWriter, r *http.Request) {
	key := strings.TrimPrefix(r.URL.Path, "/kv/")
	if key == "" {
		http.Error(w, "missing key", http.StatusBadRequest)
		return
	}
	s := g.sessionFor(r)
	var (
		reply []byte
		err   error
	)
	switch r.Method {
	case http.MethodGet:
		var op []byte
		if op, err = saebft.EncodeOp("kv", "get", key); err == nil {
			reply, err = s.ReadCertified(r.Context(), op)
		}
	case http.MethodPut, http.MethodPost:
		var body []byte
		if body, err = io.ReadAll(io.LimitReader(r.Body, 1<<20)); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var op []byte
		if op, err = saebft.EncodeOp("kv", "put", key, string(body)); err == nil {
			reply, err = s.Invoke(r.Context(), op)
		}
	case http.MethodDelete:
		var op []byte
		if op, err = saebft.EncodeOp("kv", "del", key); err == nil {
			reply, err = s.Invoke(r.Context(), op)
		}
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	w.Header().Set(watermarkHeader, strconv.FormatUint(s.Watermark(), 10))
	if r.Method == http.MethodGet && len(reply) == 0 {
		http.Error(w, "not found", http.StatusNotFound)
		return
	}
	w.Write(reply)
	if r.Method == http.MethodGet {
		w.Write([]byte("\n"))
	} else {
		fmt.Fprintf(w, " key=%s\n", key)
	}
}

func (g *gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	cs := g.client.ClientStats()
	st, err := g.client.Stats()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]interface{}{
		"reads":           cs.Reads,
		"reads_certified": cs.ReadsCertified,
		"read_retries":    cs.ReadRetries,
		"read_fallbacks":  cs.ReadFallbacks,
		"watermark":       cs.Watermark,
		"reads_served":    st.ReadsServed,
		"reads_refused":   st.ReadsRefused,
		"requests":        st.Requests,
	})
}

func main() {
	var (
		addr = flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
		demo = flag.Bool("demo", false, "drive a smoke workload against the gateway, print stats, and exit")
	)
	flag.Parse()

	cluster, err := saebft.NewCluster(
		saebft.WithMode(saebft.ModeSeparate),
		saebft.WithApp("kv"),
		saebft.WithTransport(saebft.TCPTransport()),
		saebft.WithClients(8), // pipeline width: concurrent HTTP requests
	)
	if err != nil {
		log.Fatal(err)
	}
	if err := cluster.Start(context.Background()); err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	g := &gateway{client: cluster.Client()}
	mux := http.NewServeMux()
	mux.HandleFunc("/kv/", g.handleKV)
	mux.HandleFunc("/stats", g.handleStats)

	listen := *addr
	if *demo {
		listen = "127.0.0.1:0" // never collide in CI
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	log.Printf("webgateway: 4 agreement + 3 execution replicas behind %s", base)

	if !*demo {
		select {} // serve until interrupted
	}
	if err := runDemo(base); err != nil {
		log.Fatal(err)
	}
}

// runDemo exercises the gateway the way a web client would: a write, then
// reads that must observe it (watermark echoed back), then the counters that
// prove the reads ran on the fast path.
func runDemo(base string) error {
	hc := &http.Client{Timeout: 30 * time.Second}
	req, _ := http.NewRequest(http.MethodPut, base+"/kv/paper", strings.NewReader("sosp2003"))
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("PUT status %d", resp.StatusCode)
	}
	watermark := resp.Header.Get(watermarkHeader)
	if watermark == "" || watermark == "0" {
		return fmt.Errorf("PUT reported no watermark")
	}
	fmt.Printf("PUT /kv/paper      -> watermark %s\n", watermark)

	for i := 0; i < 8; i++ {
		req, _ := http.NewRequest(http.MethodGet, base+"/kv/paper", nil)
		// Echoing the watermark pins read-your-writes even across gateways.
		req.Header.Set(watermarkHeader, watermark)
		resp, err := hc.Do(req)
		if err != nil {
			return err
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if got := strings.TrimSpace(string(body)); resp.StatusCode != http.StatusOK || got != "sosp2003" {
			return fmt.Errorf("GET %d: status %d body %q", i, resp.StatusCode, got)
		}
		watermark = resp.Header.Get(watermarkHeader)
	}
	fmt.Printf("GET /kv/paper x8   -> sosp2003 (watermark %s)\n", watermark)

	resp, err = hc.Get(base + "/stats")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var stats struct {
		Reads          uint64 `json:"reads"`
		ReadsCertified uint64 `json:"reads_certified"`
		ReadFallbacks  uint64 `json:"read_fallbacks"`
		ReadsServed    uint64 `json:"reads_served"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		return err
	}
	fmt.Printf("stats: %d reads, %d certified on the fast path, %d fallbacks, %d replica answers\n",
		stats.Reads, stats.ReadsCertified, stats.ReadFallbacks, stats.ReadsServed)
	if stats.ReadsCertified == 0 {
		return fmt.Errorf("no read certified on the fast path")
	}
	fmt.Println("all GETs served by g+1 matching attested replica answers - no agreement rounds")
	return nil
}
