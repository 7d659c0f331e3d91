(** ei_obs telemetry timeline: a fixed-size ring of timestamped frames
    capturing the {!Metrics} registry's trajectory — counter deltas,
    gauge values and windowed histogram quantiles between consecutive
    captures — exported as JSON-Lines.

    Deltas telescope: summing one counter's deltas over every frame
    reproduces its final value.  Captures happen at phase boundaries
    ({!capture}[ ~label]) and on a periodic ticker domain; both are
    cold paths that take the registry lock.  The frame ring is the
    input contract for workload-aware tuning (ROADMAP item 3) and one
    of the flight recorder's data sources. *)

val set_enabled : bool -> unit
(** Master switch; off by default.  {!capture} is a no-op when off. *)

(** {1 Frames} *)

type hist_frame = {
  hf_count : int;  (** samples observed in this window *)
  hf_sum : int;
  hf_p50 : int;
  hf_p99 : int;
  hf_p999 : int;
  hf_min : int;  (** cumulative min watermark at capture time *)
  hf_max : int;
}

type frame = {
  fr_seq : int;
  fr_ts_ns : int;
  fr_label : string;
  fr_counters : (string * int) list;
      (** counter deltas since the previous capture; zero deltas
          omitted *)
  fr_gauges : (string * int) list;  (** values at capture time *)
  fr_hists : (string * hist_frame) list;
      (** histograms with at least one sample in the window *)
}

val capture : ?label:string -> unit -> unit
(** Snapshot the registry into a new frame (no-op when disabled). *)

val frames : unit -> frame list
(** Retained frames, oldest first. *)

val latest : unit -> frame option

val reset : unit -> unit
(** Drop all frames and delta baselines. *)

(** {1 Periodic ticker} *)

val start_ticker : interval_s:float -> unit
(** Spawn a domain capturing a ["tick"] frame every [interval_s]
    seconds; no-op when one is already running. *)

val stop_ticker : unit -> unit
(** Stop and join the ticker domain, if any. *)

(** {1 Export} *)

val json_of_frame : frame -> Ei_util.Mini_json.t

val export_jsonl : unit -> string
(** One JSON object per line per frame, oldest first: [{"seq", "ts_ns",
    "label", "counters": {name: delta}, "gauges": {name: value},
    "histograms": {name: {count, sum, p50_ns, p99_ns, p999_ns, min_ns,
    max_ns}}}]. *)

val write_jsonl : string -> unit
