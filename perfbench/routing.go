package main

import (
	"sync"

	"rhythm"
	"rhythm/internal/cluster"
	"rhythm/internal/fabric"
	"rhythm/internal/session"
)

// routeOnly is a fabric transport that never ships anything: it lets the
// benchmark build a fabric with cohort-mix's node count and group table
// to ask which node a group routes to.
type routeOnly struct{}

func (routeOnly) Kind() string        { return "route-only" }
func (routeOnly) Nodes() int          { return cohortNodes }
func (routeOnly) NodeAddr(int) string { return "" }
func (routeOnly) Send(int, *cluster.Unit, func(fabric.Event)) fabric.SendStatus {
	return fabric.SendNodeDown
}
func (routeOnly) Quiesce(int)                               {}
func (routeOnly) NodeSnapshot(int) (cluster.Snapshot, bool) { return cluster.Snapshot{}, false }
func (routeOnly) OnNodeDown(func(int))                      {}
func (routeOnly) Close()                                    {}

var (
	routerOnce sync.Once
	router     *fabric.Fabric
)

// userNode reports the cohort-mix worker that owns uid's banking
// session: rendezvous routing of the user's session bucket's group.
func userNode(uid uint64) int {
	routerOnce.Do(func() {
		var err error
		router, err = fabric.New(fabric.Config{Registry: rhythm.DefaultRegistry(), Transport: routeOnly{}, Groups: workerGroups})
		if err != nil {
			panic("perfbench: route-only fabric: " + err.Error())
		}
	})
	return router.OwnerOf(session.BucketFor(uid, sessionBuckets) % workerGroups)
}

// pickUser chooses connection conn's demo user from the seed, among the
// users whose sessions live on worker conn mod 2. Spreading the
// connections over both workers makes every seed load the deployment the
// same way; without it, whether one or both workers serve banking
// depends on the seed.
func pickUser(seed int64, conn int) uint64 {
	start := uint64(seed) * 7
	for k := uint64(0); k < numUsers; k++ {
		uid := firstUser + (start+k)%numUsers
		if userNode(uid) == conn%cohortNodes {
			return uid
		}
	}
	return firstUser + (start+uint64(conn))%numUsers
}
