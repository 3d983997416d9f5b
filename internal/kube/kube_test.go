package kube

import (
	"strings"
	"testing"

	"erms/internal/cluster"
	"erms/internal/workload"
)

func newOrch(hosts int) *Orchestrator {
	return New(cluster.New(hosts, cluster.PaperHost), nil)
}

func TestApplyAndScaleUp(t *testing.T) {
	o := newOrch(3)
	if err := o.Apply(cluster.PaperContainer("a"), 5); err != nil {
		t.Fatal(err)
	}
	if o.Replicas("a") != 5 || o.Cluster().CountFor("a") != 5 {
		t.Fatalf("replicas=%d placed=%d", o.Replicas("a"), o.Cluster().CountFor("a"))
	}
	if o.TotalReplicas() != 5 {
		t.Fatalf("total = %d", o.TotalReplicas())
	}
}

func TestScaleDown(t *testing.T) {
	o := newOrch(3)
	if err := o.Apply(cluster.PaperContainer("a"), 6); err != nil {
		t.Fatal(err)
	}
	if err := o.Scale("a", 2); err != nil {
		t.Fatal(err)
	}
	if o.Cluster().CountFor("a") != 2 || o.Replicas("a") != 2 {
		t.Fatalf("after scale-down: placed=%d", o.Cluster().CountFor("a"))
	}
}

func TestScaleErrors(t *testing.T) {
	o := newOrch(1)
	if err := o.Scale("missing", 1); err == nil {
		t.Fatal("unknown deployment accepted")
	}
	if err := o.Apply(cluster.PaperContainer("a"), -1); err == nil {
		t.Fatal("negative replicas accepted")
	}
	if err := o.Apply(cluster.ContainerSpec{}, 1); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestScaleUpCapacityExhaustion(t *testing.T) {
	cl := cluster.New(1, cluster.HostSpec{Cores: 1, MemGB: 4}) // 10 x 0.1-core containers max
	o := New(cl, nil)
	err := o.Apply(cluster.PaperContainer("a"), 50)
	if err == nil {
		t.Fatal("over-capacity apply should error")
	}
	// Partial progress is reflected in the deployment state.
	if got := o.Replicas("a"); got != cl.CountFor("a") {
		t.Fatalf("replicas %d != placed %d", got, cl.CountFor("a"))
	}
	if cl.CountFor("a") != 10 {
		t.Fatalf("placed = %d, want 10", cl.CountFor("a"))
	}
}

func TestSpreadBalances(t *testing.T) {
	o := newOrch(4)
	if err := o.Apply(cluster.PaperContainer("a"), 8); err != nil {
		t.Fatal(err)
	}
	for _, h := range o.Cluster().Hosts() {
		if got := len(h.Containers()); got != 2 {
			t.Fatalf("host %d has %d containers, want 2", h.ID, got)
		}
	}
}

// TestNewDefaultsToBlindSpread pins the nil-scheduler default: the stock
// scheduler balances requested CPU and ignores background load, so a host
// at 0.9 background CPU still gets its share.
func TestNewDefaultsToBlindSpread(t *testing.T) {
	cl := cluster.New(2, cluster.PaperHost)
	cl.SetBackground(0, workload.Interference{CPU: 0.9})
	o := New(cl, nil)
	if err := o.Apply(cluster.PaperContainer("a"), 4); err != nil {
		t.Fatal(err)
	}
	for _, h := range cl.Hosts() {
		if got := len(h.Containers()); got != 2 {
			t.Fatalf("host %d has %d containers, want 2", h.ID, got)
		}
	}
}

func TestDelete(t *testing.T) {
	o := newOrch(2)
	o.Apply(cluster.PaperContainer("a"), 3)
	if err := o.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if o.Cluster().CountFor("a") != 0 || len(o.Deployments()) != 0 {
		t.Fatal("delete incomplete")
	}
	if err := o.Delete("a"); err == nil {
		t.Fatal("double delete should error")
	}
}

func TestWatchEvents(t *testing.T) {
	o := newOrch(2)
	var events []Event
	o.Watch(func(e Event) { events = append(events, e) })
	o.Apply(cluster.PaperContainer("a"), 2)
	o.Scale("a", 5)
	o.Scale("a", 5) // no-op: no event
	o.Scale("a", 1)
	o.Delete("a")
	types := make([]EventType, len(events))
	for i, e := range events {
		types[i] = e.Type
	}
	want := []EventType{EventCreate, EventScaleUp, EventScaleUp, EventScaleDown, EventScaleDown, EventDelete}
	if len(types) != len(want) {
		t.Fatalf("events = %v", types)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("event %d = %v, want %v", i, types[i], want[i])
		}
	}
	// Check deltas on the interesting ones.
	if events[1].Delta != 2 || events[2].Delta != 3 || events[3].Delta != -4 {
		t.Fatalf("deltas wrong: %+v", events)
	}
}

func TestApplyUpdatesSpec(t *testing.T) {
	o := newOrch(2)
	o.Apply(cluster.PaperContainer("a"), 1)
	bigger := cluster.PaperContainer("a")
	bigger.CPU = 0.2
	if err := o.Apply(bigger, 2); err != nil {
		t.Fatal(err)
	}
	// New containers use the updated spec.
	cs := o.Cluster().ContainersFor("a")
	if len(cs) != 2 {
		t.Fatalf("containers = %d", len(cs))
	}
	if cs[1].Spec.CPU != 0.2 {
		t.Fatalf("new container spec cpu = %v", cs[1].Spec.CPU)
	}
}

func TestDeploymentsSorted(t *testing.T) {
	o := newOrch(2)
	o.Apply(cluster.PaperContainer("z"), 1)
	o.Apply(cluster.PaperContainer("a"), 1)
	ds := o.Deployments()
	if len(ds) != 2 || ds[0] != "a" || ds[1] != "z" {
		t.Fatalf("deployments = %v", ds)
	}
}

func TestEventTypeStrings(t *testing.T) {
	for _, et := range []EventType{EventCreate, EventScaleUp, EventScaleDown, EventDelete, EventType(99)} {
		if et.String() == "" {
			t.Fatal("empty event type string")
		}
	}
}

func TestBlindSpreadIgnoresBackground(t *testing.T) {
	cl := cluster.New(2, cluster.PaperHost)
	// Host 0 is saturated by batch jobs — invisible to the stock scheduler.
	cl.SetBackground(0, workload.Interference{CPU: 0.9, Mem: 0.2})
	o := New(cl, BlindSpread{})
	// Requests balance evenly across both hosts despite the batch load,
	// as long as hard capacity allows.
	if err := o.Apply(cluster.PaperContainer("a"), 6); err != nil {
		t.Fatal(err)
	}
	if len(cl.Host(0).Containers()) != 3 || len(cl.Host(1).Containers()) != 3 {
		t.Fatalf("blind spread placed %d/%d, want 3/3",
			len(cl.Host(0).Containers()), len(cl.Host(1).Containers()))
	}
}

func TestBlindSpreadRespectsHardCapacity(t *testing.T) {
	cl := cluster.New(2, cluster.HostSpec{Cores: 1, MemGB: 4})
	cl.SetBackground(0, workload.Interference{CPU: 0.95})
	o := New(cl, BlindSpread{})
	// Host 0 only fits 0.05 cores of requests: everything lands on host 1.
	if err := o.Apply(cluster.PaperContainer("a"), 5); err != nil {
		t.Fatal(err)
	}
	if got := len(cl.Host(1).Containers()); got != 5 {
		t.Fatalf("host1 = %d containers", got)
	}
}

func TestBlindSpreadEvict(t *testing.T) {
	cl := cluster.New(2, cluster.PaperHost)
	cl.Place(cluster.PaperContainer("a"), 0)
	cl.Place(cluster.PaperContainer("a"), 0)
	cl.Place(cluster.PaperContainer("a"), 1)
	victim, err := (BlindSpread{}).Evict(cl, "a")
	if err != nil {
		t.Fatal(err)
	}
	if victim.Host.ID != 0 {
		t.Fatalf("evicted from host %d, want the request-heavy host 0", victim.Host.ID)
	}
	if _, err := (BlindSpread{}).Evict(cl, "none"); err == nil {
		t.Fatal("missing microservice accepted")
	}
}

func TestBlindSpreadNoFit(t *testing.T) {
	cl := cluster.New(1, cluster.HostSpec{Cores: 1, MemGB: 4})
	cl.SetBackground(0, workload.Interference{CPU: 1})
	if _, err := (BlindSpread{}).Place(cl, cluster.PaperContainer("a")); err == nil {
		t.Fatal("full cluster accepted")
	}
}

func TestScaleRejectsNegativeReplicas(t *testing.T) {
	o := newOrch(2)
	if err := o.Apply(cluster.PaperContainer("a"), 2); err != nil {
		t.Fatal(err)
	}
	err := o.Scale("a", -3)
	if err == nil {
		t.Fatal("negative replicas accepted")
	}
	if !strings.Contains(err.Error(), "-3") || !strings.Contains(err.Error(), "a") {
		t.Fatalf("error %q should name the count and the deployment", err)
	}
	if o.Replicas("a") != 2 || o.Cluster().CountFor("a") != 2 {
		t.Fatal("failed scale mutated state")
	}
	if err := o.Apply(cluster.PaperContainer("b"), -1); err == nil || !strings.Contains(err.Error(), "-1") {
		t.Fatalf("apply with negative replicas: %v", err)
	}
}

func TestScaleDownLastReplicaAndDelete(t *testing.T) {
	o := newOrch(2)
	if err := o.Apply(cluster.PaperContainer("a"), 1); err != nil {
		t.Fatal(err)
	}
	// Removing the last replica keeps the deployment object around at 0.
	if err := o.Scale("a", 0); err != nil {
		t.Fatal(err)
	}
	if o.Cluster().CountFor("a") != 0 {
		t.Fatal("last replica not evicted")
	}
	if d, ok := o.Deployment("a"); !ok || d.Replicas != 0 {
		t.Fatalf("deployment after scale-to-zero: %+v ok=%v", d, ok)
	}
	// Scaling an empty deployment back up works.
	if err := o.Scale("a", 2); err != nil {
		t.Fatal(err)
	}
	if err := o.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, ok := o.Deployment("a"); ok {
		t.Fatal("deployment survived delete")
	}
	if err := o.Delete("missing"); err == nil {
		t.Fatal("deleting unknown deployment accepted")
	}
}

func TestWatchEventOrderingApplyScaleDelete(t *testing.T) {
	o := newOrch(2)
	var events []Event
	o.Watch(func(e Event) { events = append(events, e) })
	o.Apply(cluster.PaperContainer("a"), 4)
	o.Scale("a", 1)
	o.Delete("a")
	want := []EventType{EventCreate, EventScaleUp, EventScaleDown, EventScaleDown, EventDelete}
	if len(events) != len(want) {
		t.Fatalf("events = %+v", events)
	}
	for i, e := range events {
		if e.Type != want[i] {
			t.Fatalf("event %d = %v, want %v", i, e.Type, want[i])
		}
	}
	// The delete's implicit scale-to-zero precedes the delete event.
	if events[3].Delta != -1 {
		t.Fatalf("pre-delete scale-down = %+v", events[3])
	}
}

func TestFailNodeRecoverAndRepair(t *testing.T) {
	o := newOrch(3)
	if err := o.Apply(cluster.PaperContainer("a"), 6); err != nil {
		t.Fatal(err)
	}
	var events []Event
	o.Watch(func(e Event) { events = append(events, e) })
	lost := len(o.Cluster().Host(1).Containers())
	if lost == 0 {
		t.Fatal("test needs containers on host 1")
	}
	if err := o.FailNode(1); err != nil {
		t.Fatal(err)
	}
	if err := o.FailNode(1); err != nil { // idempotent
		t.Fatal(err)
	}
	if !o.Cluster().Host(1).Down() {
		t.Fatal("host 1 not down")
	}
	if got := o.Cluster().CountFor("a"); got != 6-lost {
		t.Fatalf("live containers = %d, want %d", got, 6-lost)
	}
	// Desired state is untouched: the deployment is under-replicated.
	if o.Replicas("a") != 6 {
		t.Fatalf("desired replicas changed to %d", o.Replicas("a"))
	}

	replaced, err := o.Repair()
	if err != nil || replaced != lost {
		t.Fatalf("Repair = (%d, %v), want (%d, nil)", replaced, err, lost)
	}
	if got := o.Cluster().CountFor("a"); got != 6 {
		t.Fatalf("after repair: %d containers", got)
	}
	if got := len(o.Cluster().Host(1).Containers()); got != 0 {
		t.Fatalf("repair placed %d containers on the down host", got)
	}
	// Converged: repair is a no-op.
	if n, err := o.Repair(); n != 0 || err != nil {
		t.Fatalf("second repair = (%d, %v)", n, err)
	}

	if err := o.RecoverNode(1); err != nil {
		t.Fatal(err)
	}
	if o.Cluster().Host(1).Down() {
		t.Fatal("host 1 still down after recovery")
	}
	if err := o.RecoverNode(1); err != nil { // idempotent
		t.Fatal(err)
	}

	var types []EventType
	for _, e := range events {
		switch e.Type {
		case EventNodeFail, EventRepair, EventNodeRecover:
			types = append(types, e.Type)
		}
	}
	want := []EventType{EventNodeFail, EventRepair, EventNodeRecover}
	if len(types) != len(want) {
		t.Fatalf("fault events = %v, want %v", types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("fault events = %v, want %v", types, want)
		}
	}
	if events[0].Delta != -lost {
		t.Fatalf("node-fail delta = %d, want %d", events[0].Delta, -lost)
	}
}

func TestNodeEventTypeStrings(t *testing.T) {
	for _, et := range []EventType{EventNodeFail, EventNodeRecover, EventRepair} {
		if et.String() == "" || et.String() == "unknown" {
			t.Fatalf("event type %d has no name", et)
		}
	}
}
