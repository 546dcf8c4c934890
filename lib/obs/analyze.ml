(* Ambient per-request accumulator for ANALYZE actuals. Off is the
   common case and must stay near-free: [note_*] is one DLS get plus a
   [None] check. On, writers take the report's mutex — an ANALYZE
   request is diagnostic and may pay for serialization. *)

type stage = { sg_name : string; sg_in : int; sg_out : int }

type report = {
  lock : Mutex.t;
  mutable r_stages : stage list;  (* reverse recording order *)
  mutable r_task_gc : Runtime.gc_delta;
  mutable r_tasks : int;
}

let key : report option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let active () = Domain.DLS.get key <> None

let current () = Domain.DLS.get key

let with_report f =
  let r =
    {
      lock = Mutex.create ();
      r_stages = [];
      r_task_gc = Runtime.zero;
      r_tasks = 0;
    }
  in
  let saved = Domain.DLS.get key in
  Domain.DLS.set key (Some r);
  Fun.protect ~finally:(fun () -> Domain.DLS.set key saved) (fun () ->
      let v = f () in
      (v, r))

let task r f =
  match r with
  | None -> f ()
  | Some r ->
    let saved = Domain.DLS.get key in
    Domain.DLS.set key (Some r);
    let g0 = Runtime.capture () in
    Fun.protect
      ~finally:(fun () ->
        let d = Runtime.delta g0 in
        Domain.DLS.set key saved;
        Mutex.protect r.lock (fun () ->
            r.r_task_gc <- Runtime.add r.r_task_gc d;
            r.r_tasks <- r.r_tasks + 1))
      f

let note_stage ~name ~input ~output =
  match Domain.DLS.get key with
  | None -> ()
  | Some r ->
    Mutex.protect r.lock (fun () ->
        r.r_stages <- { sg_name = name; sg_in = input; sg_out = output } :: r.r_stages)

let stages r = List.rev r.r_stages

let task_gc r = r.r_task_gc

let tasks r = r.r_tasks
