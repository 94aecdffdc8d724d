// Command bench runs the repository's benchmark; see README.md next to
// this file. All of it lives in repro/internal/bench.
package main

import (
	"os"

	"repro/internal/bench"
)

func main() { os.Exit(bench.Main(os.Args[1:], os.Stdout, os.Stderr)) }
