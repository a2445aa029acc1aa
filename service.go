package rrfd

import (
	"repro/internal/chaos"
	"repro/internal/serve"
)

// ---- Agreement service (internal/serve) ----

type (
	// ServiceConfig shapes one agreement-service node: mesh membership,
	// client listener, WAL directory and fsync policy, admission bound,
	// request deadline and instance TTL.
	ServiceConfig = serve.Config

	// ServiceServer is one serving node: it multiplexes many concurrent
	// k-set agreement instances over a single TCP mesh, journals
	// proposals and decisions before acknowledging them, and sheds load
	// past its in-flight bound.
	ServiceServer = serve.Server

	// ServiceStats counts one server's work: submits, decisions,
	// idempotent replays, sheds, abstains, evictions, recoveries.
	ServiceStats = serve.Stats

	// ServiceClientConfig shapes a retrying client: attempt budget,
	// per-attempt timeout, seeded backoff ladder.
	ServiceClientConfig = serve.ClientConfig

	// ServiceClient submits requests with idempotent request IDs and
	// seeded-jitter retries, so a retry can never double-decide.
	ServiceClient = serve.Client

	// ServiceResponse is one answer: decided, abstain (with gathered /
	// needed counts), overload (with table occupancy), or unknown.
	ServiceResponse = serve.Response

	// ServiceStatus enumerates response outcomes.
	ServiceStatus = serve.Status

	// ServiceOverloadError reports a submit shed at a full in-flight
	// instance table.
	ServiceOverloadError = serve.OverloadError

	// ServiceUnreachableError reports a client that exhausted its
	// attempt budget without a single server answer.
	ServiceUnreachableError = serve.UnreachableError

	// ServiceClusterConfig shapes an in-process loopback cluster for
	// tests, load tools and campaigns.
	ServiceClusterConfig = serve.ClusterConfig

	// ServiceCluster is n serving nodes on loopback with kill-and-restart
	// support.
	ServiceCluster = serve.Cluster

	// ServiceJournal is the durable content of one server's WAL, read
	// offline — the ground truth a chaos audit compares acknowledgements
	// against.
	ServiceJournal = serve.JournalState

	// ServeChaosConfig tunes the kill-and-recover service campaign.
	ServeChaosConfig = chaos.ServeConfig

	// ServeChaosSummary aggregates one campaign: acks, degraded
	// outcomes, the victim's durability audit, and any violations.
	ServeChaosSummary = chaos.ServeSummary

	// ServeChaosViolation is one broken service promise (lost-ack,
	// conflicting-retry, k-agreement, ...).
	ServeChaosViolation = chaos.ServeViolation
)

// Service response statuses.
const (
	ServiceDecided  = serve.StatusDecided
	ServiceAbstain  = serve.StatusAbstain
	ServiceOverload = serve.StatusOverload
	ServiceUnknown  = serve.StatusUnknown
)

var (
	// StartService brings one serving node up (replaying its WAL first).
	StartService = serve.Start

	// NewServiceClient connects a retrying client to one serving node.
	NewServiceClient = serve.NewClient

	// StartServiceCluster brings up n loopback serving nodes with
	// kill-and-restart support.
	StartServiceCluster = serve.StartCluster

	// ReadServiceJournal replays a server's WAL without starting it.
	ReadServiceJournal = serve.ReadJournal

	// NewServiceAuditor returns an empty auditor of reported decisions
	// against the service's promises: idempotency, k-agreement, validity.
	NewServiceAuditor = serve.NewAuditor

	// RunServeChaos runs one kill-and-recover service campaign: seeded
	// client load, a mid-batch victim kill, a journal audit, a restart,
	// and a full idempotent replay.
	RunServeChaos = chaos.RunServe
)
