package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// child is one finished rdmabench process, timed by its wait4 rusage.
type child struct {
	out        string
	cpu        time.Duration // user + system
	rssKB      int64         // ru_maxrss
	start, end time.Time
	err        error // start failure or non-zero exit, with the stderr tail
}

// runChild runs bin with args to completion and returns its output and cost.
// The child gets one P (GOMAXPROCS=1): the simulation is serial anyway, and
// with a single P the garbage collector's pacing, and so the peak RSS,
// repeats within a few percent instead of varying by ±15%.
func runChild(bin string, args []string) child {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	// A killed rdmaperf takes its running child with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	c := child{start: time.Now()}
	err := cmd.Run()
	c.end = time.Now()
	c.out = stdout.String()
	if ps := cmd.ProcessState; ps != nil {
		c.cpu = ps.UserTime() + ps.SystemTime()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			c.rssKB = ru.Maxrss
		}
	}
	if err != nil {
		c.err = fmt.Errorf("rdmabench %s: %v: %s", strings.Join(args, " "), err, lastLine(stderr.String()))
	}
	return c
}

func lastLine(s string) string {
	s = strings.TrimRight(s, "\n")
	return s[strings.LastIndexByte(s, '\n')+1:]
}

// stripTiming removes rdmabench's wall-clock progress line
// "(<id> completed in <duration>)" and the blank line after it, leaving the
// bytes that are deterministic for a given invocation.
func stripTiming(out string) string {
	var b strings.Builder
	lines := strings.SplitAfter(out, "\n")
	for i := 0; i < len(lines); i++ {
		l := lines[i]
		if strings.HasPrefix(l, "(") && strings.Contains(l, " completed in ") {
			if i+1 < len(lines) && lines[i+1] == "\n" {
				i++
			}
			continue
		}
		b.WriteString(l)
	}
	return b.String()
}

// reportSection cuts a -metrics output at its telemetry summary, leaving the
// experiment report (and any fault summary lines) that a run without
// -metrics prints.
func reportSection(out string) string {
	report, _, _ := strings.Cut(out, "# stage histograms")
	return report
}
