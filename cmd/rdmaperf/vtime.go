package main

import (
	"fmt"
	"strconv"
	"strings"
)

// queues are the queueing resources whose -metrics wait and service rows
// the trace run reports, in report order.
var queues = []string{
	"verbs.qp_pipeline", "rnic.pcie_rd", "rnic.pcie_wr", "rnic.exec",
	"fabric.tx", "fabric.rx", "proxy.ipc",
}

// queueOf maps a -metrics histogram component to its queue, or "".
func queueOf(component string) string {
	switch {
	case component == "qp/pipeline", component == "udqp/pipeline":
		return "verbs.qp_pipeline"
	case component == "nic/pcie-rd":
		return "rnic.pcie_rd"
	case component == "nic/pcie-wr":
		return "rnic.pcie_wr"
	case strings.HasPrefix(component, "nic/port") && strings.HasSuffix(component, "/exec"):
		return "rnic.exec"
	case strings.HasPrefix(component, "fab/") && strings.HasSuffix(component, "/tx"):
		return "fabric.tx"
	case strings.HasPrefix(component, "fab/") && strings.HasSuffix(component, "/rx"):
		return "fabric.rx"
	case component == "proxyd/ipc":
		return "proxy.ipc"
	}
	return ""
}

type queueTally struct {
	waitCount, waitP50Sum       int64 // count-weighted sum of row p50s
	serviceCount, serviceP50Sum int64
	waitP99Max                  int64
}

// vtime sums the virtual-time telemetry of -metrics outputs over machines
// and experiments. Every value is simulation output: identical on every run
// of one invocation list, whatever the host does.
type vtime struct {
	ops      int64            // verbs/<OP> e2e histogram counts
	counters map[string]int64 // "component counter" -> value
	queues   map[string]*queueTally
}

func newVtime() *vtime {
	return &vtime{counters: map[string]int64{}, queues: map[string]*queueTally{}}
}

// add folds one rdmabench -metrics output into the sums.
func (v *vtime) add(out string) error {
	section := ""
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "# stage histograms"):
			section = "hist"
			continue
		case strings.HasPrefix(line, "# counters"):
			section = "counters"
			continue
		case strings.HasPrefix(line, "#"), strings.HasPrefix(line, "("), line == "":
			section = ""
			continue
		}
		f := strings.Fields(line)
		if section == "" || len(f) == 0 || f[0] == "machine" {
			continue
		}
		switch section {
		case "hist":
			if len(f) != 8 {
				return fmt.Errorf("histogram row %q: want 8 fields", line)
			}
			count, p50, p99, err := atoi3(f[3], f[4], f[6])
			if err != nil {
				return fmt.Errorf("histogram row %q: %v", line, err)
			}
			v.addHist(f[1], f[2], count, p50, p99)
		case "counters":
			if len(f) != 4 {
				return fmt.Errorf("counter row %q: want 4 fields", line)
			}
			n, err := strconv.ParseInt(f[3], 10, 64)
			if err != nil {
				return fmt.Errorf("counter row %q: %v", line, err)
			}
			v.counters[f[1]+" "+f[2]] += n
		}
	}
	if !strings.Contains(out, "# stage histograms") {
		return fmt.Errorf("no stage histograms in -metrics output")
	}
	return nil
}

func (v *vtime) addHist(component, stage string, count, p50, p99 int64) {
	if strings.HasPrefix(component, "verbs/") && stage == "e2e" {
		v.ops += count
		return
	}
	q := queueOf(component)
	if q == "" {
		return
	}
	t := v.queues[q]
	if t == nil {
		t = &queueTally{}
		v.queues[q] = t
	}
	switch stage {
	case "wait":
		t.waitCount += count
		t.waitP50Sum += count * p50
		t.waitP99Max = max(t.waitP99Max, p99)
	case "service":
		t.serviceCount += count
		t.serviceP50Sum += count * p50
	}
}

func atoi3(a, b, c string) (x, y, z int64, err error) {
	if x, err = strconv.ParseInt(a, 10, 64); err != nil {
		return
	}
	if y, err = strconv.ParseInt(b, 10, 64); err != nil {
		return
	}
	z, err = strconv.ParseInt(c, 10, 64)
	return
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// missRatio is misses over lookups for one NIC cache ("xlate", "qp", "mr").
func (v *vtime) missRatio(cache string) float64 {
	miss := v.counters["nic "+cache+"-misses"]
	return ratio(miss, miss+v.counters["nic "+cache+"-hits"])
}

// metrics returns the virtual-time per-layer metrics: counters and ratios,
// then three statistics per queue.
func (v *vtime) metrics() []metric {
	c := v.counters
	abort := c["txn abort"]
	ms := []metric{
		{"verbs.ops", "count", float64(v.ops)},
		{"rnic.doorbells", "count", float64(c["nic doorbells"])},
		{"rnic.wqes_per_doorbell", "ratio", ratio(c["nic doorbell-wqes"], c["nic doorbells"])},
		{"rnic.xlate_miss_ratio", "ratio", v.missRatio("xlate")},
		{"rnic.qp_miss_ratio", "ratio", v.missRatio("qp")},
		{"rnic.mr_miss_ratio", "ratio", v.missRatio("mr")},
		{"verbs.retransmits", "count", float64(c["nic/rel retransmits"])},
		{"verbs.ack_timeouts", "count", float64(c["nic/rel ack-timeouts"])},
		{"fabric.drop_ratio", "ratio", ratio(c["fabric drops"], c["fabric segments"])},
		{"txn.abort_ratio", "ratio", ratio(abort, abort+c["txn commit"])},
	}
	for _, q := range queues {
		t := v.queues[q]
		if t == nil {
			t = &queueTally{}
		}
		ms = append(ms,
			metric{q + ".wait_p50_ns", "sim_ns", ratio(t.waitP50Sum, t.waitCount)},
			metric{q + ".wait_p99_ns", "sim_ns", float64(t.waitP99Max)},
			metric{q + ".service_p50_ns", "sim_ns", ratio(t.serviceP50Sum, t.serviceCount)},
		)
	}
	return ms
}
