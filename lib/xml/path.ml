type id = int

type node = { parent : id; (* -1 for root paths *) tag : Interner.id; depth : int }

type table = {
  by_key : (int * Interner.id, id) Hashtbl.t; (* (parent, tag) -> id; parent = -1 at root *)
  mutable nodes : node array;
  mutable next : int;
}

let dummy = { parent = -1; tag = -1; depth = 0 }

let create () = { by_key = Hashtbl.create 64; nodes = Array.make 64 dummy; next = 0 }

let grow t =
  let n = Array.length t.nodes in
  let a = Array.make (2 * n) dummy in
  Array.blit t.nodes 0 a 0 n;
  t.nodes <- a

let copy t =
  { by_key = Hashtbl.copy t.by_key; nodes = Array.copy t.nodes; next = t.next }

let intern t ~parent ~tag =
  match Hashtbl.find_opt t.by_key (parent, tag) with
  | Some id -> id
  | None ->
    let id = t.next in
    if id = Array.length t.nodes then grow t;
    let depth = if parent < 0 then 1 else t.nodes.(parent).depth + 1 in
    t.nodes.(id) <- { parent; tag; depth };
    Hashtbl.add t.by_key (parent, tag) id;
    t.next <- id + 1;
    id

let root t ~tag = intern t ~parent:(-1) ~tag

let child t ~parent ~tag = intern t ~parent ~tag

let get t id =
  if id < 0 || id >= t.next then invalid_arg "Path: unknown id" else t.nodes.(id)

let parent t id =
  let n = get t id in
  if n.parent < 0 then None else Some n.parent

let tag t id = (get t id).tag

let depth t id = (get t id).depth

(* Top-level climbs, not local closures: without flambda a local
   [let rec] capturing [t] would be heap allocated on every call. *)
let rec climb_to t ancestor da id =
  if id = ancestor then true
  else
    let n = get t id in
    if n.depth <= da then false
    else if n.parent < 0 then false
    else climb_to t ancestor da n.parent

let is_prefix t ~ancestor ~descendant = climb_to t ancestor (depth t ancestor) descendant

let rec climb_at t d id =
  let n = get t id in
  if n.depth = d then Some id
  else if n.depth < d || n.parent < 0 then None
  else climb_at t d n.parent

let ancestor_at t id ~depth:d = if d < 1 then None else climb_at t d id

let ancestors t id =
  (* [p; parent; ...; root] *)
  let rec go acc id =
    let n = get t id in
    if n.parent < 0 then List.rev (id :: acc) else go (id :: acc) n.parent
  in
  go [] id

let size t = t.next

let to_string t tags id =
  let rec parts acc id =
    let n = get t id in
    let acc = Interner.name tags n.tag :: acc in
    if n.parent < 0 then acc else parts acc n.parent
  in
  "/" ^ String.concat "/" (parts [] id)

let iter f t =
  for id = 0 to t.next - 1 do
    f id
  done
