package experiments

import (
	"reflect"
	"sync"
	"testing"

	"socrm/internal/control"
	"socrm/internal/workload"
)

// Figures 3 and 4 read one deployment table that the first of them to run
// fills. These tests pin that sharing changes nothing: not the call order,
// not a concurrent caller, and not the runs themselves.

func TestFig4BeforeFig3MatchesFig3First(t *testing.T) {
	first := buildStudy(t, 0)
	fig3, fig4 := first.Fig3(), first.Fig4()
	second := buildStudy(t, 0)
	fig4Rev := second.Fig4()
	if got := second.Fig3(); !reflect.DeepEqual(got, fig3) {
		t.Fatal("Fig3 depends on whether Fig4 ran first")
	}
	if !reflect.DeepEqual(fig4Rev, fig4) {
		t.Fatalf("Fig4 depends on whether Fig3 ran first:\nFig3 first %v\nFig4 first %v", fig4, fig4Rev)
	}
}

func TestOnlineDeploymentsMatchStandaloneRuns(t *testing.T) {
	s := buildStudy(t, 0)
	table := s.deploymentTable()
	online := workload.NewSequence(s.onlineApps()...)
	for _, c := range []struct {
		name  string
		got   deployment
		fresh func() adaptiveDecider
	}{
		{"online IL", table.onlineIL, func() adaptiveDecider { return s.FreshOnlineIL() }},
		{"Q-table", table.onlineRL, func() adaptiveDecider { return s.FreshQTable(6) }},
	} {
		if want := control.Run(s.P, online, c.fresh(), s.defaultStart()); !reflect.DeepEqual(c.got.run, want) {
			t.Fatalf("%s: the traced deployment differs from a standalone run without the accuracy hook", c.name)
		}
		if _, want := s.accuracyRun(online, c.fresh(), fig3Window); !reflect.DeepEqual(c.got.pts, want) {
			t.Fatalf("%s: the accuracy trace differs from a fresh learner's", c.name)
		}
	}
}

func TestConcurrentFig3Fig4(t *testing.T) {
	ref := buildStudy(t, 0)
	wantFig3, wantFig4 := ref.Fig3(), ref.Fig4()

	s := buildStudy(t, 0)
	var fig3 Fig3Result
	var fig4 []Fig4Row
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); fig3 = s.Fig3() }()
	go func() { defer wg.Done(); fig4 = s.Fig4() }()
	wg.Wait()
	if !reflect.DeepEqual(fig3, wantFig3) {
		t.Fatal("Fig3 differs when called concurrently with Fig4")
	}
	if !reflect.DeepEqual(fig4, wantFig4) {
		t.Fatal("Fig4 differs when called concurrently with Fig3")
	}
}
