(* In-memory span recorder for the traced run.

   Spans are recorded by the benchmark's own code around its calls into
   the library, never inside it.  Each domain keeps its own stack (the
   parent of a span is the innermost open span on the same domain,
   unless the caller names one explicitly, as a pool task does for the
   span that fanned it out) and its own list of finished spans, so the
   hot path takes no lock.  Recording is off until [start]; while off,
   [with_] is one atomic load. *)

type t = {
  name : string;
  id : int;
  parent : int;  (** 0 for a root span *)
  req : int;  (** request (or class) id; -1 outside any request *)
  tid : int;  (** domain id *)
  t0 : float;  (** seconds, [Unix.gettimeofday] *)
  t1 : float;
  n : int;  (** images in a forward span, 0 otherwise *)
}

type domain_state = {
  mutable stack : (int * int) list;  (** (span id, req) of open spans *)
  mutable finished : t list;
}

let on = Atomic.make false
let next_id = Atomic.make 1
let registry_lock = Mutex.create ()
let registry : domain_state list ref = ref []

let state_key =
  Domain.DLS.new_key (fun () ->
      let s = { stack = []; finished = [] } in
      Mutex.protect registry_lock (fun () -> registry := s :: !registry);
      s)

(* The innermost open span of the calling domain as [(id, req)], so a
   pool task on another domain can name it as its parent. *)
let current () =
  match (Domain.DLS.get state_key).stack with
  | top :: _ -> top
  | [] -> (0, -1)

let with_ ?parent ?req ?(n = 0) name f =
  if not (Atomic.get on) then f ()
  else begin
    let st = Domain.DLS.get state_key in
    let outer_id, outer_req =
      match st.stack with top :: _ -> top | [] -> (0, -1)
    in
    let parent, inherited_req =
      match parent with Some p -> p | None -> (outer_id, outer_req)
    in
    let req = Option.value req ~default:inherited_req in
    let id = Atomic.fetch_and_add next_id 1 in
    st.stack <- (id, req) :: st.stack;
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Unix.gettimeofday () in
        st.stack <- List.tl st.stack;
        st.finished <-
          {
            name;
            id;
            parent;
            req;
            tid = (Domain.self () :> int);
            t0;
            t1;
            n;
          }
          :: st.finished)
      f
  end

let start () =
  Mutex.protect registry_lock (fun () ->
      List.iter (fun s -> s.finished <- []) !registry);
  Atomic.set on true

(* Stop recording and return every finished span, start-ordered.  Call
   only when no pool job is in flight. *)
let stop () =
  Atomic.set on false;
  Mutex.protect registry_lock (fun () ->
      let all = List.concat_map (fun s -> s.finished) !registry in
      List.iter (fun s -> s.finished <- []) !registry;
      List.sort (fun a b -> compare a.t0 b.t0) all)

let duration s = s.t1 -. s.t0

(* Chrome trace-event JSON, one event per line, the framing
   [Evalharness.Traceprof] and [tools/traceprof.exe] parse. *)
let write_chrome path spans =
  let origin = match spans with [] -> 0. | s :: _ -> s.t0 in
  let us t = (t -. origin) *. 1e6 in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "[\n";
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"name\": \"%s\", \"cat\": \"e2e\", \"ph\": \"X\", \"ts\": \
             %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, \"args\": \
             {\"id\": %d, \"parent\": %d, \"req\": %d, \"n\": %d}},\n"
            s.name (us s.t0) (us s.t1 -. us s.t0) s.tid s.id s.parent s.req
            s.n)
        spans;
      output_string oc "{}]\n")
