package shard

import "github.com/streammatch/apcm/expr"

// ShardOf exposes the group's routing to the external tests, which
// check per-shard outcomes of a restore.
func (g *Group) ShardOf(x *expr.Expression) int { return g.shardOf(x.ID) }
