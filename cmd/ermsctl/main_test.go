package main

import (
	"strings"
	"testing"
)

func TestParseRates(t *testing.T) {
	defaults := func() map[string]float64 {
		return map[string]float64{"search": 20_000, "reserve": 20_000}
	}

	rates := defaults()
	if err := parseRates("search=50000, reserve=100", rates); err != nil {
		t.Fatal(err)
	}
	if rates["search"] != 50_000 || rates["reserve"] != 100 {
		t.Fatalf("rates = %v", rates)
	}
	if err := parseRates("", rates); err != nil {
		t.Fatalf("empty list: %v", err)
	}

	// A misspelled service must fail and list the real ones, not fall
	// through to the default rate.
	rates = defaults()
	err := parseRates("serach=50000", rates)
	if err == nil {
		t.Fatal("unknown service accepted")
	}
	for _, want := range []string{`"serach"`, "reserve, search"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %s", err, want)
		}
	}
	if len(rates) != 2 || rates["search"] != 20_000 {
		t.Fatalf("rejected entry changed the rates: %v", rates)
	}

	for _, bad := range []string{"search", "search=fast"} {
		if err := parseRates(bad, defaults()); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}
