// Command campaignw is the distributed campaign worker: a child process
// the coordinator (campaignd with -workers-exec, or internal/dist
// directly) spawns per worker seat. It speaks the dist pipe protocol on
// stdin/stdout — receive the scenario spec, validate its fingerprint,
// then execute granted unit ranges in order, streaming one result line
// per unit and a heartbeat between them — and writes diagnostics to
// stderr. It is never run by hand; without a coordinator on the other
// end of the pipe it just waits for an init message that never comes.
package main

import (
	"fmt"
	"io"
	"os"

	"cosched/internal/dist"
)

func main() {
	if err := realMain(os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "campaignw: %v\n", err)
		os.Exit(1)
	}
}

// realMain serves one coordinator connection on stdin/stdout until
// shutdown or EOF, logging worker diagnostics to stderr.
func realMain(stdin io.Reader, stdout, stderr io.Writer) error {
	logf := func(format string, args ...any) {
		fmt.Fprintf(stderr, "campaignw: "+format+"\n", args...)
	}
	return dist.WorkerMain(stdin, stdout, dist.WorkerConfig{Logf: logf})
}
