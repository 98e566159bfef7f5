// Command experiments regenerates every quantitative claim of the paper's
// evaluation narrative and prints the measured tables next to the claims.
//
// Usage:
//
//	experiments           # run all seventeen experiments
//	experiments -run E5   # run one experiment
//	experiments -list     # list experiment IDs and titles
//	experiments -run E5 -cpuprofile cpu.out -memprofile mem.out
//	                      # profile a run; read with go tool pprof
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cliutil"
	"repro/internal/experiments"
)

func main() {
	only := flag.String("run", "", "run only the experiment with this ID (E1..E21, A1, A2)")
	list := flag.Bool("list", false, "list experiments and exit")
	ablations := flag.Bool("ablations", false, "also run the A1/A2 ablations in the full sweep")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile of the run to this file")
	flag.Parse()

	stop, err := cliutil.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	code := run(*only, *list, *ablations)
	if err := stop(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		code = 1
	}
	os.Exit(code)
}

// run prints the selected experiments and returns the exit status: 0 when
// every report matches the paper's shape, 1 when one does not, 2 for an
// unknown ID.
func run(only string, list, ablations bool) int {
	all := map[string]func() experiments.Report{
		"E1":  experiments.E1GateCount,
		"E2":  experiments.E2AddressSpaceCode,
		"E3":  experiments.E3SupervisorEntries,
		"E4":  experiments.E4CrossRingCall,
		"E5":  experiments.E5PageFaultPath,
		"E6":  experiments.E6NetworkBuffer,
		"E7":  experiments.E7PolicyFaultInjection,
		"E8":  experiments.E8InterruptHandling,
		"E9":  experiments.E9KernelInventory,
		"E10": experiments.E10Penetration,
		"E11": experiments.E11MLSPartitioning,
		"E12": experiments.E12BootComplexity,
		"E13": experiments.E13NetAttach,
		"E14": experiments.E14HotPathPerformance,
		"E15": experiments.E15FaultStorm,
		"E16": experiments.E16MetricsPlane,
		"E17": experiments.E17FleetScaling,
		"E18": experiments.E18HierarchyScale,
		"E19": experiments.E19CheckpointRestore,
		"E20": experiments.E20DeterministicEngine,
		"E21": experiments.E21PersonaWorkloads,
		"A1":  experiments.A1SecurityCost,
		"A2":  experiments.A2WaterMarks,
	}
	order := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20", "E21"}
	if ablations {
		order = append(order, "A1", "A2")
	}

	if list {
		for _, id := range order {
			rep := all[id]()
			fmt.Printf("%-4s %s\n", rep.ID, rep.Title)
		}
		return 0
	}

	if only != "" {
		fn, ok := all[only]
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (want E1..E21)\n", only)
			return 2
		}
		rep := fn()
		fmt.Println(rep.Format())
		if !rep.Pass {
			return 1
		}
		return 0
	}

	failures := 0
	for _, id := range order {
		rep := all[id]()
		fmt.Println(rep.Format())
		if !rep.Pass {
			failures++
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d experiment(s) did not match the paper's shape\n", failures)
		return 1
	}
	fmt.Printf("all %d experiments match the paper's claimed shapes\n", len(order))
	return 0
}
