package main

import (
	"strings"
	"testing"
)

func TestSelectedExperiments(t *testing.T) {
	all, err := selected("all")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range all {
		names = append(names, e.name)
	}
	if got := strings.Join(names, " "); got != "fig1 khop throughput robust" {
		t.Fatalf("all runs %q", got)
	}
	one, err := selected("KHop")
	if err != nil || len(one) != 1 || one[0].name != "khop" {
		t.Fatalf("KHop: %v, %v", one, err)
	}
	// A typo used to print the banner, run nothing and exit 0.
	_, err = selected("nope")
	if err == nil || !strings.Contains(err.Error(), "fig1 | khop | throughput | robust") {
		t.Fatalf("unknown name: %v", err)
	}
}
