package main

import "flag"

// options holds every esctl command-line setting. The flag layer is
// split out of main so the flag surface — names, defaults, and the verb
// and its operands left over after them — is testable without a socket.
type options struct {
	target string
	local  string
	args   []string // the verb and its operands
}

// parseFlags registers the full esctl flag surface on a fresh FlagSet
// and parses args (not including the program name).
func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("esctl", flag.ContinueOnError)
	fs.StringVar(&o.target, "target", "", "speaker management address (host:port)")
	fs.StringVar(&o.local, "local", "0.0.0.0:0", "local bind address")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	o.args = fs.Args()
	return o, nil
}
