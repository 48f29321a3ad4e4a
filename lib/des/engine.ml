module Heap = struct
  (* binary min-heap on (time, task id), unboxed: the two halves of an
     entry live at the same index of two parallel arrays *)
  type t = { mutable times : float array; mutable tasks : int array; mutable size : int }

  let create () = { times = Array.make 64 0.0; tasks = Array.make 64 0; size = 0 }
  let is_empty h = h.size = 0

  let swap h i j =
    let time = h.times.(i) and task = h.tasks.(i) in
    h.times.(i) <- h.times.(j);
    h.tasks.(i) <- h.tasks.(j);
    h.times.(j) <- time;
    h.tasks.(j) <- task

  let push h time task =
    if h.size = Array.length h.times then begin
      let grow a fill =
        let bigger = Array.make (2 * h.size) fill in
        Array.blit a 0 bigger 0 h.size;
        bigger
      in
      h.times <- grow h.times 0.0;
      h.tasks <- grow h.tasks 0
    end;
    h.times.(h.size) <- time;
    h.tasks.(h.size) <- task;
    h.size <- h.size + 1;
    let i = ref (h.size - 1) in
    while !i > 0 && h.times.((!i - 1) / 2) > h.times.(!i) do
      let parent = (!i - 1) / 2 in
      swap h parent !i;
      i := parent
    done

  let top_time h = h.times.(0)
  let top_task h = h.tasks.(0)

  (* removes the minimum; read it with [top_time] and [top_task] first *)
  let pop h =
    if h.size = 0 then invalid_arg "Heap.pop: empty";
    h.size <- h.size - 1;
    h.times.(0) <- h.times.(h.size);
    h.tasks.(0) <- h.tasks.(h.size);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.size && h.times.(l) < h.times.(!smallest) then smallest := l;
      if r < h.size && h.times.(r) < h.times.(!smallest) then smallest := r;
      if !smallest = !i then continue := false
      else begin
        swap h !smallest !i;
        i := !smallest
      end
    done
end

type graph = {
  n_tasks : int;
  predecessors : int -> int;
  iter_dependents : int -> (int -> unit) -> unit;
}

let run graph ~earliest ~duration =
  let n = graph.n_tasks in
  let pending = Array.init n graph.predecessors in
  let ready_at =
    Array.init n (fun task ->
        let time = earliest task in
        if time < 0.0 then invalid_arg "Engine.run: negative release date";
        time)
  in
  let completion = Array.make n nan in
  let heap = Heap.create () in
  let started = ref 0 in
  let start task time =
    incr started;
    Heap.push heap (time +. duration task) task
  in
  for task = 0 to n - 1 do
    if pending.(task) = 0 then start task ready_at.(task)
  done;
  while not (Heap.is_empty heap) do
    let time = Heap.top_time heap and task = Heap.top_task heap in
    Heap.pop heap;
    completion.(task) <- time;
    graph.iter_dependents task (fun next ->
        if time > ready_at.(next) then ready_at.(next) <- time;
        pending.(next) <- pending.(next) - 1;
        if pending.(next) = 0 then start next ready_at.(next))
  done;
  if !started <> n then failwith "Engine.run: dependency cycle, some tasks never became ready";
  completion
