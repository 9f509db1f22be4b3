package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"
)

// measureSetup sets the workload's system up k times, each in a fresh
// process, and returns each set-up time: from starting the process until
// it reports the first job admissible. A fresh process is what a user
// starts (`siesta -app`, `siesta serve`, a gateway and a worker), so the
// time includes the runtime's and the packages' initialization.
func measureSetup(workload string, k int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < k; i++ {
		d, err := probeOnce(exe, workload)
		if err != nil {
			return nil, err
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

func probeOnce(exe, workload string) (time.Duration, error) {
	cmd := exec.Command(exe, "--probe-setup", workload)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return 0, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(stdout).ReadString('\n')
	d := time.Since(start)
	stdin.Close() // tells the probe to shut down
	io.Copy(io.Discard, stdout)
	if err := cmd.Wait(); err != nil {
		return 0, fmt.Errorf("probe %s: %w", workload, err)
	}
	if rerr != nil || strings.TrimSpace(line) != "ready" {
		return 0, fmt.Errorf("probe %s: no ready line (%q, %v)", workload, line, rerr)
	}
	return d, nil
}

// runProbe is the child side of measureSetup: set up, report ready, wait
// for standard input to close, shut down.
func runProbe(workload string, stdin io.Reader, stdout io.Writer) error {
	var st *stack
	switch workload {
	case synthApps.name:
		// The library is ready once the apps the panel deals are built.
		for _, e := range panel() {
			if _, err := buildApp(e); err != nil {
				return err
			}
		}
	case serveStream.name, serveOneshot.name:
		var err error
		if st, err = startStack(workload == serveOneshot.name); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown workload %q", workload)
	}
	fmt.Fprintln(stdout, "ready")
	io.Copy(io.Discard, stdin)
	if st != nil {
		return st.stop()
	}
	return nil
}
