package main

import "flag"

// options holds every eslab command-line setting. The flag layer is
// split out of main so the flag surface — names and defaults — is
// testable without running an experiment.
type options struct {
	exp   string
	list  bool
	quick bool
}

// parseFlags registers the full eslab flag surface on a fresh FlagSet
// and parses args (not including the program name).
func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("eslab", flag.ContinueOnError)
	fs.StringVar(&o.exp, "exp", "", "experiment to run (or 'all')")
	fs.BoolVar(&o.list, "list", false, "list experiments")
	fs.BoolVar(&o.quick, "quick", false, "reduced workloads (for smoke tests)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return o, nil
}
