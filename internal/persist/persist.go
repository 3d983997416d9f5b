// Package persist serializes the repository's long-lived artifacts to JSON:
// application topologies (so custom apps can be authored as data files) and
// scaling plans (for audit and replay).
package persist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"erms/internal/apps"
	"erms/internal/cluster"
	"erms/internal/graph"
	"erms/internal/multiplex"
	"erms/internal/sim"
	"erms/internal/workload"
)

// nodeJSON is one call-tree node: a microservice plus its stages of
// parallel downstream calls.
type nodeJSON struct {
	Microservice string       `json:"microservice"`
	Stages       [][]nodeJSON `json:"stages,omitempty"`
}

// graphJSON is one service's dependency graph.
type graphJSON struct {
	Service string   `json:"service"`
	Root    nodeJSON `json:"root"`
}

// appJSON is the on-disk application format.
type appJSON struct {
	Name       string                           `json:"name"`
	Graphs     []graphJSON                      `json:"graphs"`
	Profiles   map[string]sim.ServiceProfile    `json:"profiles"`
	SLAs       map[string]workload.SLA          `json:"slas"`
	Containers map[string]cluster.ContainerSpec `json:"containers"`
}

func nodeToJSON(n *graph.Node) nodeJSON {
	out := nodeJSON{Microservice: n.Microservice}
	for _, st := range n.Stages {
		stage := make([]nodeJSON, len(st))
		for i, c := range st {
			stage[i] = nodeToJSON(c)
		}
		out.Stages = append(out.Stages, stage)
	}
	return out
}

func buildNode(g *graph.Graph, parent *graph.Node, j nodeJSON) error {
	for _, stage := range j.Stages {
		names := make([]string, len(stage))
		for i, c := range stage {
			if c.Microservice == "" {
				return errors.New("persist: node with empty microservice")
			}
			names[i] = c.Microservice
		}
		created := g.AddStage(parent, names...)
		for i, c := range stage {
			if err := buildNode(g, created[i], c); err != nil {
				return err
			}
		}
	}
	return nil
}

// SaveApp writes the application as indented JSON.
func SaveApp(w io.Writer, app *apps.App) error {
	if err := app.Validate(); err != nil {
		return fmt.Errorf("persist: refusing to save invalid app: %w", err)
	}
	out := appJSON{
		Name:       app.Name,
		Profiles:   app.Profiles,
		SLAs:       app.SLAs,
		Containers: app.Containers,
	}
	for _, g := range app.Graphs {
		out.Graphs = append(out.Graphs, graphJSON{Service: g.Service, Root: nodeToJSON(g.Root)})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// LoadApp reads an application saved by SaveApp (or hand-authored in the
// same format) and validates it.
func LoadApp(r io.Reader) (*apps.App, error) {
	var in appJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	app := &apps.App{
		Name:       in.Name,
		Profiles:   in.Profiles,
		SLAs:       in.SLAs,
		Containers: in.Containers,
	}
	for _, gj := range in.Graphs {
		if gj.Root.Microservice == "" {
			return nil, fmt.Errorf("persist: service %s has no root", gj.Service)
		}
		g := graph.New(gj.Service, gj.Root.Microservice)
		if err := buildNode(g, g.Root, gj.Root); err != nil {
			return nil, err
		}
		app.Graphs = append(app.Graphs, g)
	}
	if err := app.Validate(); err != nil {
		return nil, fmt.Errorf("persist: loaded app invalid: %w", err)
	}
	return app, nil
}

// planJSON is the audit/replay form of a multiplex plan.
type planJSON struct {
	Scheme     string                    `json:"scheme"`
	Containers map[string]int            `json:"containers"`
	Total      int                       `json:"total_containers"`
	Ranks      map[string]map[string]int `json:"priority_ranks,omitempty"`
	Targets    map[string]msTargets      `json:"targets_per_service"`
}

type msTargets map[string]float64

// SavePlan writes a scaling plan as indented JSON.
func SavePlan(w io.Writer, plan *multiplex.Plan) error {
	out := planJSON{
		Scheme:     plan.Scheme.String(),
		Containers: plan.Containers,
		Total:      plan.TotalContainers(),
		Ranks:      plan.Ranks,
		Targets:    make(map[string]msTargets, len(plan.PerService)),
	}
	for svc, alloc := range plan.PerService {
		out.Targets[svc] = alloc.Targets
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
