package planner

import "roadknn/internal/roadnet"

// WindowObjects is the planner's per-cell object-update window.
func (p *Planner) WindowObjects() []uint32 { return p.winObj }

// CellOf is the grid cell the planner files pos under.
func (p *Planner) CellOf(pos roadnet.Position) int32 { return p.cellOf(pos) }
