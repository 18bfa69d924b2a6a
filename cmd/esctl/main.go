// Command esctl is the management console (§5.3): get, set and walk the
// MIB of a running Ethernet Speaker, or broadcast settings to every
// speaker on the control group at once — including the central override
// that preempts all programmes with an announcement channel.
//
// Examples:
//
//	esctl -target 10.0.0.7:5005 walk es
//	esctl -target 10.0.0.7:5005 get es.audio.volume
//	esctl -target 10.0.0.7:5005 set es.tuner.channel 239.72.1.2:5004
//	esctl broadcast es.override.begin 239.72.1.9:5004
//	esctl broadcast es.override.end 1
//
// The ops verb talks HTTP to a daemon's -ops-addr endpoint instead of
// the MIB protocol — Prometheus metrics, the JSON snapshot, the packet
// trace ring (draining it), or liveness:
//
//	esctl -target 10.0.0.7:9090 ops metrics
//	esctl -target 10.0.0.7:9090 ops trace
package main

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"os"

	"repro/internal/lan"
	"repro/internal/mgmt"
	"repro/internal/vclock"
)

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2) // flag package already printed the problem
	}
	log.SetPrefix("esctl: ")
	log.SetFlags(0)
	args := o.args
	if len(args) < 1 {
		usage()
	}

	client, err := mgmt.NewClient(vclock.System, &lan.UDPNetwork{}, lan.Addr(o.local))
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	verb := args[0]
	switch verb {
	case "get":
		requireTarget(o.target)
		requireArgs(args, 2)
		v, err := client.Get(lan.Addr(o.target), args[1])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(v)
	case "set":
		requireTarget(o.target)
		requireArgs(args, 3)
		v, err := client.Set(lan.Addr(o.target), args[1], args[2])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(v)
	case "walk":
		requireTarget(o.target)
		prefix := ""
		if len(args) > 1 {
			prefix = args[1]
		}
		pairs, err := client.Walk(lan.Addr(o.target), prefix)
		if err != nil {
			log.Fatal(err)
		}
		for _, p := range pairs {
			fmt.Printf("%-28s %s\n", p.Name, p.Value)
		}
	case "broadcast":
		requireArgs(args, 3)
		if err := client.SetAll(mgmt.Pair{Name: args[1], Value: args[2]}); err != nil {
			log.Fatal(err)
		}
		fmt.Println("broadcast sent (no acknowledgement by design)")
	case "ops":
		// The ops plane speaks HTTP, not the MIB protocol: -target here
		// is a daemon's -ops-addr. "trace" drains the packet trace ring.
		requireTarget(o.target)
		what := "metrics"
		if len(args) > 1 {
			what = args[1]
		}
		route, ok := map[string]string{
			"metrics":  "/metrics",
			"snapshot": "/snapshot",
			"trace":    "/trace",
			"health":   "/healthz",
		}[what]
		if !ok {
			usage()
		}
		resp, err := http.Get("http://" + o.target + route)
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		if _, err := io.Copy(os.Stdout, resp.Body); err != nil {
			log.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			log.Fatalf("%s returned %s", route, resp.Status)
		}
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  esctl -target host:port get <name>
  esctl -target host:port set <name> <value>
  esctl -target host:port walk [prefix]
  esctl -target host:port ops [metrics|snapshot|trace|health]   (target = a daemon's -ops-addr)
  esctl broadcast <name> <value>`)
	os.Exit(2)
}

func requireTarget(t string) {
	if t == "" {
		fmt.Fprintln(os.Stderr, "esctl: -target required for this verb")
		os.Exit(2)
	}
}

func requireArgs(args []string, n int) {
	if len(args) < n {
		usage()
	}
}
