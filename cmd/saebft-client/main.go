// Command saebft-client issues operations against a running deployment and
// waits for certified replies (g+1 matching replies or one valid threshold
// signature, depending on the deployment's reply mode).
//
// Key-value deployments (app "kv"):
//
//	saebft-client -config cluster.json put greeting hello
//	saebft-client -config cluster.json get greeting
//	saebft-client -config cluster.json del greeting
//	saebft-client -config cluster.json list prefix/
//
// Counter deployments (app "counter"):
//
//	saebft-client -config cluster.json inc
//	saebft-client -config cluster.json add 41
//	saebft-client -config cluster.json get-count
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/saebft"
)

func main() {
	var (
		cfgPath  = flag.String("config", "cluster.json", "cluster config file")
		id       = flag.Int("id", 1000, "client identity")
		timeout  = flag.Duration("timeout", 15*time.Second, "per-request timeout")
		read     = flag.Bool("read", false, "serve the operation through the certified fast read path (falls back to full agreement when it cannot certify)")
		useTLS   = flag.Bool("tls", false, "require mutual-TLS links; -tls=false forces plaintext. Default: follow the config (TLS exactly when it has a tls section)")
		caFile   = flag.String("ca", "", "cluster CA certificate (PEM); default: the config's tls.ca")
		certFile = flag.String("cert", "", "this client identity's certificate (PEM); default: <tls.certDir>/node-<id>.pem from the config")
		keyFile  = flag.String("key", "", "this client identity's private key (PEM); default: <tls.certDir>/node-<id>-key.pem from the config")
	)
	flag.Parse()
	args := flag.Args()
	cfg, err := saebft.LoadConfig(*cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "saebft-client:", err)
		os.Exit(1)
	}
	if len(args) == 0 {
		usage := saebft.AppUsage(cfg.App())
		if usage == "" {
			usage = "this app has no CLI encoding"
		}
		fmt.Fprintf(os.Stderr, "saebft-client: no operation given (try: %s)\n", usage)
		os.Exit(2)
	}
	op, err := saebft.EncodeOp(cfg.App(), args...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "saebft-client:", err)
		os.Exit(2)
	}
	dialOpts := []saebft.DialOption{saebft.DialClients(*id), saebft.DialTimeout(*timeout)}
	tlsOpts, err := tlsDialOptions(cfg, *id, *useTLS, tlsFlagSet(), *caFile, *certFile, *keyFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "saebft-client:", err)
		os.Exit(1)
	}
	client, err := saebft.DialConfig(cfg, append(dialOpts, tlsOpts...)...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "saebft-client:", err)
		os.Exit(1)
	}
	defer client.Close()

	invoke := client.Invoke
	if *read {
		invoke = client.ReadCertified
	}
	reply, err := invoke(context.Background(), op)
	if err != nil {
		fmt.Fprintln(os.Stderr, "saebft-client:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", reply)
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

// tlsDialOptions maps the shared saebft.TLSFlags resolution onto dial
// options, mirroring saebft-node's semantics for its link material.
func tlsDialOptions(cfg *saebft.Config, id int, useTLS, tlsSet bool, ca, cert, key string) ([]saebft.DialOption, error) {
	flags := saebft.TLSFlags{TLS: useTLS, TLSSet: tlsSet, CA: ca, Cert: cert, Key: key}
	rca, rcert, rkey, insecure, err := flags.Resolve(cfg, id)
	switch {
	case err != nil:
		return nil, err
	case insecure:
		return []saebft.DialOption{saebft.DialInsecure()}, nil
	case rca != "":
		return []saebft.DialOption{saebft.DialTLS(rca, rcert, rkey)}, nil
	default:
		return nil, nil
	}
}
