(** Bench regression gate.

    Compares freshly produced bench JSON against the committed
    [BENCH_*.json] baselines and reports gated metrics that moved past a
    noise tolerance in the bad direction.  Which direction is bad is
    derived from the leaf field name: [*seconds*] and
    [*overhead_fraction*] must not grow; [*speedup*], [*images_per_sec*],
    [*hit_rate*] and [*per_s*] must not shrink; every other field
    (counts, flags, notes) is context and is not gated.
    [*overhead_fraction*] leaves are gated against the absolute
    {!overhead_target} whatever their baseline; any other gated baseline
    with magnitude under [min_magnitude] is skipped — sub-centisecond
    per-layer timings jitter by whole multiples between runs — and
    {!render} names each skipped metric.

    Used by [bench regress] and the [tools/regress] CLI, both of which
    exit nonzero when {!passed} is false. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

exception Parse_error of string

val parse_json : string -> json
(** Parse the JSON subset our bench writer emits.  Raises
    {!Parse_error} with an offset on malformed input. *)

val parse_file : string -> json

val registered_baselines : string list
(** The canonical committed-baseline set, one [BENCH_*.json] per bench
    mode that writes one.  Bench modes register here; the gates resolve
    this list rather than globbing, so a missing committed file is a
    loud named failure instead of a silent skip. *)

exception Missing_baseline of string list
(** Raised by {!locate_baselines} with every registered baseline that
    could not be found. *)

val locate_baselines : unit -> string list
(** Resolve {!registered_baselines} against the current directory, then
    one level up (the [dune runtest] staging layout).  Returns the
    resolved paths in registry order; raises {!Missing_baseline} naming
    the absentees if any registered file is found in neither place. *)

val flatten : json -> (string * float) list
(** Every numeric leaf as a dotted/indexed path:
    [{"runs": [{"s": 1.5}]}] yields [[("runs[0].s", 1.5)]]. *)

type direction = Lower_better | Higher_better | Ungated

val direction_of : string -> direction
(** The gate policy for a flattened metric path (keyed on its leaf). *)

type finding = {
  metric : string;
  baseline : float;
  fresh : float;
  change : float;
      (** signed fractional change; positive = grew.  For
          [*overhead_fraction*] leaves (already fractions) the absolute
          difference [fresh - baseline]. *)
}

type report = {
  checked : int;  (** gated metrics present in both files *)
  regressions : finding list;
  improvements : finding list;
      (** moved past tolerance in the good direction (informational) *)
  missing : string list;  (** gated in the baseline, absent fresh *)
  skipped : string list;
      (** gated, but not compared: baseline magnitude under
          [min_magnitude] *)
}

val default_tolerance : float
(** 0.10 — tolerates 10% run-to-run noise while catching a 20% slide. *)

val default_min_magnitude : float

val overhead_target : float
(** 0.03 — a fresh [*overhead_fraction*] above this is a regression,
    whatever the baseline. *)

val compare_metrics :
  ?tolerance:float ->
  ?min_magnitude:float ->
  baseline:(string * float) list ->
  fresh:(string * float) list ->
  unit ->
  report

val compare_files :
  ?tolerance:float ->
  ?min_magnitude:float ->
  baseline:string ->
  fresh:string ->
  unit ->
  report

val passed : report -> bool
(** No regressions and no missing gated metrics. *)

val render : label:string -> report -> string
(** Human-readable verdict block (one line per finding). *)

val degrade : ?factor:float -> (string * float) list -> (string * float) list
(** Push every gated metric [factor] (default 1.2) past its baseline in
    the bad direction — the synthetic failure the gate's smoke test must
    catch. *)
