package main

import (
	"fmt"
	"sort"
)

// workloads maps each name to its constructor.
var workloads = map[string]func() workload{
	"paper-figures":       func() workload { return &paperFigures{} },
	"runtime-antipackets": func() workload { return &antiPackets{} },
	"cluster-load":        func() workload { return &clusterLoad{} },
	"figures-warm":        func() workload { return &figuresWarm{} },
}

func newWorkload(name string) (workload, error) {
	mk, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames())
	}
	return mk(), nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
