// Package vis implements the visualization group of the paper's data
// model (Figure 3) and the shared visual-attributes architecture of
// Figure 6: a Visualization is a set of VisualizationComponents, each
// assigning VisualAttributes (x, y, width, height, color, label,
// selected) to data items. Attributes are computed once, stored in the
// VisualAttributes table, and shared by any number of display views —
// possibly on different machines, each showing some or all of the data
// (the paper's iPhone 10% / laptop 30% / WILD wall 100% scenario).
package vis

import (
	"fmt"
	"strings"

	"ediflow/internal/database"
	"ediflow/internal/types"
)

// Attr is one object's visual attributes within a component.
type Attr struct {
	X, Y          float64
	Width, Height float64
	Color         string
	Label         string
	Selected      bool
}

// Visualization mirrors the Figure 3 entity.
type Visualization struct {
	ID   int64
	Name string
	db   *database.DB
}

// Component is one perspective over a set of entity instances.
type Component struct {
	ID    int64
	VisID int64
	Label string
	Kind  string // "node-link", "treemap", "scatter", ...
	db    *database.DB
}

// NewVisualization registers a visualization.
func NewVisualization(db *database.DB, name string) (*Visualization, error) {
	id, err := db.NextID(database.TableVisualization)
	if err != nil {
		return nil, err
	}
	_, err = db.Exec("INSERT INTO "+database.TableVisualization+" (id, name) VALUES (?, ?)",
		types.NewInt(id), types.NewString(name))
	if err != nil {
		return nil, err
	}
	return &Visualization{ID: id, Name: name, db: db}, nil
}

// AddComponent registers a component of this visualization.
func (v *Visualization) AddComponent(label, kind string) (*Component, error) {
	id, err := v.db.NextID(database.TableVisComponent)
	if err != nil {
		return nil, err
	}
	_, err = v.db.Exec("INSERT INTO "+database.TableVisComponent+" (id, visualization, label, kind) VALUES (?, ?, ?, ?)",
		types.NewInt(id), types.NewInt(v.ID), types.NewString(label), types.NewString(kind))
	if err != nil {
		return nil, err
	}
	return &Component{ID: id, VisID: v.ID, Label: label, Kind: kind, db: v.db}, nil
}

// Components lists the components of a visualization.
func (v *Visualization) Components() ([]*Component, error) {
	res, err := v.db.Query("SELECT id, label, kind FROM "+database.TableVisComponent+" WHERE visualization = ? ORDER BY id",
		types.NewInt(v.ID))
	if err != nil {
		return nil, err
	}
	out := make([]*Component, 0, len(res.Rows))
	for _, r := range res.Rows {
		out = append(out, &Component{ID: r[0].Int(), VisID: v.ID, Label: r[1].Str(), Kind: r[2].Str(), db: v.db})
	}
	return out, nil
}

// The per-object writes. Each names one object of one component, so the
// system schema's (obj_id, comp_id) index turns it into a point lookup.
const (
	sqlSetAttributes = "UPDATE " + database.TableVisualAttributes +
		" SET x = ?, y = ?, width = ?, height = ?, color = ?, label = ?, selected = ? WHERE obj_id = ? AND comp_id = ?"
	sqlSetPositions     = "UPDATE " + database.TableVisualAttributes + " SET x = ?, y = ? WHERE obj_id = ? AND comp_id = ?"
	sqlSelect           = "UPDATE " + database.TableVisualAttributes + " SET selected = ? WHERE obj_id = ? AND comp_id = ?"
	sqlDeleteAttributes = "DELETE FROM " + database.TableVisualAttributes + " WHERE obj_id = ? AND comp_id = ?"
)

func attrArgs(objID int64, compID int64, a Attr) []types.Value {
	return []types.Value{
		types.NewInt(objID), types.NewInt(compID),
		types.NewFloat(a.X), types.NewFloat(a.Y),
		types.NewFloat(a.Width), types.NewFloat(a.Height),
		types.NewString(a.Color), types.NewString(a.Label),
		types.NewBool(a.Selected),
	}
}

// InsertAttributes bulk-inserts attributes for new objects (the Figure 8
// "inserting tuples in VisualAttributes table" step). It is the fast path
// used when objects are known to be absent.
func (c *Component) InsertAttributes(attrs map[int64]Attr) error {
	if len(attrs) == 0 {
		return nil
	}
	var sb strings.Builder
	sb.WriteString("INSERT INTO " + database.TableVisualAttributes +
		" (obj_id, comp_id, x, y, width, height, color, label, selected) VALUES ")
	var args []types.Value
	first := true
	for objID, a := range attrs {
		if !first {
			sb.WriteString(", ")
		}
		first = false
		sb.WriteString("(?, ?, ?, ?, ?, ?, ?, ?, ?)")
		args = append(args, attrArgs(objID, c.ID, a)...)
	}
	_, err := c.db.Exec(sb.String(), args...)
	return err
}

// SetAttributes upserts attributes (update if present, else insert). "The
// visualization component computes and fills the visual attributes only
// once regardless of the number of generated views."
func (c *Component) SetAttributes(attrs map[int64]Attr) error {
	for objID, a := range attrs {
		res, err := c.db.Exec(sqlSetAttributes,
			types.NewFloat(a.X), types.NewFloat(a.Y),
			types.NewFloat(a.Width), types.NewFloat(a.Height),
			types.NewString(a.Color), types.NewString(a.Label), types.NewBool(a.Selected),
			types.NewInt(objID), types.NewInt(c.ID))
		if err != nil {
			return err
		}
		if res.Affected == 0 {
			if err := c.InsertAttributes(map[int64]Attr{objID: a}); err != nil {
				return err
			}
		}
	}
	return nil
}

// SetPositions updates only x/y for existing objects (the layout
// streaming path: positions stored "at any rate until the algorithm
// stops").
func (c *Component) SetPositions(pos map[int64][2]float64) error {
	for objID, p := range pos {
		res, err := c.db.Exec(sqlSetPositions,
			types.NewFloat(p[0]), types.NewFloat(p[1]), types.NewInt(objID), types.NewInt(c.ID))
		if err != nil {
			return err
		}
		if res.Affected == 0 {
			if err := c.InsertAttributes(map[int64]Attr{objID: {X: p[0], Y: p[1]}}); err != nil {
				return err
			}
		}
	}
	return nil
}

// DeleteAttributes removes the attributes of objects that left the data.
func (c *Component) DeleteAttributes(objIDs []int64) error {
	for _, id := range objIDs {
		if _, err := c.db.Exec(sqlDeleteAttributes, types.NewInt(id), types.NewInt(c.ID)); err != nil {
			return err
		}
	}
	return nil
}

// Attributes reads back all attributes of the component.
func (c *Component) Attributes() (map[int64]Attr, error) {
	res, err := c.db.Query(
		"SELECT obj_id, x, y, width, height, color, label, selected FROM "+
			database.TableVisualAttributes+" WHERE comp_id = ?", types.NewInt(c.ID))
	if err != nil {
		return nil, err
	}
	out := make(map[int64]Attr, len(res.Rows))
	for _, r := range res.Rows {
		a := Attr{}
		if !r[1].IsNull() {
			a.X = r[1].Float()
		}
		if !r[2].IsNull() {
			a.Y = r[2].Float()
		}
		if !r[3].IsNull() {
			a.Width = r[3].Float()
		}
		if !r[4].IsNull() {
			a.Height = r[4].Float()
		}
		a.Color = r[5].AsString()
		a.Label = r[6].AsString()
		if !r[7].IsNull() {
			a.Selected = r[7].Bool()
		}
		out[r[0].Int()] = a
	}
	return out, nil
}

// Select marks an object as selected in this component; sibling
// components reflect the selection by recomputing from the shared table
// ("whether the data instance is currently selected by a given
// visualisation component ... typically triggers the recomputation of the
// other components").
func (c *Component) Select(objID int64, selected bool) error {
	res, err := c.db.Exec(sqlSelect, types.NewBool(selected), types.NewInt(objID), types.NewInt(c.ID))
	if err != nil {
		return err
	}
	if res.Affected == 0 {
		return fmt.Errorf("vis: no attributes for object %d in component %d", objID, c.ID)
	}
	return nil
}

// SelectedObjects lists the objects currently selected in the component.
func (c *Component) SelectedObjects() ([]int64, error) {
	res, err := c.db.Query(
		"SELECT obj_id FROM "+database.TableVisualAttributes+
			" WHERE comp_id = ? AND selected = TRUE ORDER BY obj_id", types.NewInt(c.ID))
	if err != nil {
		return nil, err
	}
	out := make([]int64, 0, len(res.Rows))
	for _, r := range res.Rows {
		out = append(out, r[0].Int())
	}
	return out, nil
}
