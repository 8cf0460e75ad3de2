(** Cluster-upgrade execution timing (Fig. 13).

    BtrPlace executes migration actions sequentially (the conservative
    setting operators use — cf. Alibaba's 15-day, 45k-VM maintenance
    [59]); host upgrades overlap with the following group's migrations,
    so the wall-clock is dominated by the migration chain plus the last
    upgrade. *)

type timing = {
  migration_count : int;
  inplace_vm_count : int;
  migration_time : Sim.Time.t;   (** sum of sequential migration ops *)
  upgrade_tail : Sim.Time.t;     (** the non-overlapped last host upgrade *)
  total : Sim.Time.t;
}

val migration_op_time :
  nic:Hw.Nic.t -> vm:Model.vm -> Sim.Time.t
(** One live-migration action: setup + pre-copy + stop-and-copy over
    the cluster network.  Memoised on (nic, VM RAM, workload) — see
    {!Hypertp.Costs.Memo} — so fleet-scale planning computes each
    distinct VM profile once. *)

val inplace_host_time : vms:int -> Sim.Time.t
(** One InPlaceTP host upgrade (kexec + restore of [vms] VMs) on a
    cluster node.  Memoised on the riding-VM count. *)

val reboot_host_time : Sim.Time.t
(** Full reboot of a drained host (the migration-only path). *)

val execute : nic:Hw.Nic.t -> Btrplace.plan -> timing

val sweep :
  ?nodes:int -> ?vms_per_node:int -> fractions:float list -> unit ->
  (float * timing) list
(** Run the section 5.4 experiment for each InPlaceTP-compatible
    fraction: 10 nodes x 10 VMs (1 vCPU / 4 GiB; 30 % streaming, 30 %
    CPU+memory, 40 % idle) on a 10 Gbps network. *)

val pp_timing : Format.formatter -> timing -> unit
