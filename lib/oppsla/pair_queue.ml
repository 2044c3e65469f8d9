type t = {
  d1 : int;
  d2 : int;
  next : int array; (* -1 = none *)
  prev : int array;
  present : bool array;
  seq : int array;
  mutable next_seq : int;
  mutable head : int; (* -1 = empty *)
  mutable tail : int;
  mutable size : int;
  loc_corners : int array; (* per-location bitmask of enqueued corners *)
}

let nil = -1

let init ~d1 ~d2 order =
  if d1 <= 0 || d2 <= 0 then invalid_arg "Pair_queue.init: empty image";
  let capacity = Pair.count ~d1 ~d2 in
  let q =
    {
      d1;
      d2;
      next = Array.make capacity nil;
      prev = Array.make capacity nil;
      present = Array.make capacity false;
      seq = Array.make capacity 0;
      next_seq = 0;
      head = nil;
      tail = nil;
      size = 0;
      loc_corners = Array.make (d1 * d2) 0;
    }
  in
  List.iter
    (fun (p : Pair.t) ->
      if not (Location.in_bounds ~d1 ~d2 p.loc) then
        invalid_arg
          (Printf.sprintf "Pair_queue.init: location %s out of bounds"
             (Location.to_string p.loc));
      let id = Pair.id ~d2 p in
      if q.present.(id) then
        invalid_arg
          (Printf.sprintf "Pair_queue.init: duplicate pair %s"
             (Pair.to_string p));
      q.present.(id) <- true;
      q.seq.(id) <- q.next_seq;
      q.next_seq <- q.next_seq + 1;
      q.prev.(id) <- q.tail;
      q.next.(id) <- nil;
      if q.tail = nil then q.head <- id else q.next.(q.tail) <- id;
      q.tail <- id;
      q.size <- q.size + 1;
      let li = Location.index ~d2 p.loc in
      q.loc_corners.(li) <- q.loc_corners.(li) lor (1 lsl p.corner))
    order;
  q

let full_space ~d1 ~d2 ~image =
  let locs_by_center = Location.by_center_distance ~d1 ~d2 in
  (* rank.(loc).(k) = the location's k-th farthest corner from the
     original pixel. *)
  let rank =
    Array.map
      (fun (loc : Location.t) ->
        Rgb.corners_by_distance (Rgb.of_image image ~row:loc.row ~col:loc.col))
      locs_by_center
  in
  let order = ref [] in
  for k = 7 downto 0 do
    for li = Array.length locs_by_center - 1 downto 0 do
      order :=
        Pair.make ~loc:locs_by_center.(li) ~corner:rank.(li).(k) :: !order
    done
  done;
  init ~d1 ~d2 !order

let detach q id =
  let p = q.prev.(id) and n = q.next.(id) in
  if p = nil then q.head <- n else q.next.(p) <- n;
  if n = nil then q.tail <- p else q.prev.(n) <- p;
  q.present.(id) <- false;
  q.size <- q.size - 1;
  let li = id / 8 and corner = id mod 8 in
  q.loc_corners.(li) <- q.loc_corners.(li) land lnot (1 lsl corner)

let attach_back q id =
  q.present.(id) <- true;
  q.seq.(id) <- q.next_seq;
  q.next_seq <- q.next_seq + 1;
  q.prev.(id) <- q.tail;
  q.next.(id) <- nil;
  if q.tail = nil then q.head <- id else q.next.(q.tail) <- id;
  q.tail <- id;
  q.size <- q.size + 1;
  let li = id / 8 and corner = id mod 8 in
  q.loc_corners.(li) <- q.loc_corners.(li) lor (1 lsl corner)

let pop q =
  if q.head = nil then None
  else begin
    let id = q.head in
    detach q id;
    Some (Pair.of_id ~d2:q.d2 id)
  end

let require_member q (p : Pair.t) op =
  let id = Pair.id ~d2:q.d2 p in
  if not q.present.(id) then
    invalid_arg
      (Printf.sprintf "Pair_queue.%s: pair %s not in queue" op
         (Pair.to_string p));
  id

let push_back q p =
  let id = require_member q p "push_back" in
  detach q id;
  attach_back q id

let remove q p =
  let id = require_member q p "remove" in
  detach q id

let mem q p = q.present.(Pair.id ~d2:q.d2 p)

let first_with_location q (loc : Location.t) =
  if not (Location.in_bounds ~d1:q.d1 ~d2:q.d2 loc) then None
  else begin
    let li = Location.index ~d2:q.d2 loc in
    let mask = q.loc_corners.(li) in
    if mask = 0 then None
    else begin
      (* The queue order equals ascending [seq] order (see the interface
         comment), so the front-most member corner minimizes [seq]. *)
      let best = ref nil in
      for corner = 0 to 7 do
        if mask land (1 lsl corner) <> 0 then begin
          let id = (li * 8) + corner in
          if !best = nil || q.seq.(id) < q.seq.(!best) then best := id
        end
      done;
      Some (Pair.of_id ~d2:q.d2 !best)
    end
  end

let length q = q.size
let is_empty q = q.size = 0

let to_list q =
  let rec walk id acc =
    if id = nil then List.rev acc
    else walk q.next.(id) (Pair.of_id ~d2:q.d2 id :: acc)
  in
  walk q.head []
